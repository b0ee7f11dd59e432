//! `trace_audit`: a fixed synthetic trace of about 300K events from 4
//! producers is recorded as process mode records it, read back as a
//! resuming prince reads it, and judged by the batch analyzer.
//!
//! * Record: every event goes through `proto::write_frame`, then
//!   `proto::read_frame`, then `JournalWriter::append`.
//! * Resume: `Journal::salvage`, `partition_journal`, `replay_events`.
//! * Analyze: `Trace::from_events`, then `Analyzer::analyze` with a
//!   registry compiled by `jmst-props`.
//!
//! About 0.1 % of messages are dropped and 0.1 % delivered twice, at
//! disjoint positions, so the exact violation counts are known up front.

use crate::clock::{SpeedSampler, Timed};
use crate::spans::Recorder;
use crate::tempdir::TempDir;
use jmst_api::destination::{Destination, EndpointId, QueueName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::time::Timestamp;
use jmst_core::{partition_journal, replay_events, AnalysisReport, Analyzer, PropertyKind};
use jmst_harness::proto::{read_frame, write_frame};
use jmst_harness::WireMessage;
use jmst_sim::SimRng;
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::journal::schedule_digest;
use jmst_store::{
    Journal, JournalError, JournalKey, JournalRecord, JournalWriter, Trace, VerdictRecord,
};
use std::path::Path;
use std::time::Duration;

/// Producers in the trace.
pub const PRODUCERS: u64 = 4;
/// Competing consumers on the audited queue.
pub const CONSUMERS: u64 = 2;
/// How large a trace a pass audits, and how many times it repeats the
/// resume and the batch analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Messages sent; with one receive each the trace has about twice
    /// as many events.
    pub messages: usize,
    pub resumes: usize,
    pub analyses: usize,
}

/// `trace_audit` as the primary workload: a trace of about 300K events.
pub const PRIMARY: Sizing = Sizing {
    messages: 150_000,
    resumes: 1,
    analyses: 5,
};
/// `trace_audit` as a companion workload: a trace of about 50K events,
/// small enough that every run can afford a few passes.
pub const COMPANION: Sizing = Sizing {
    messages: 25_000,
    resumes: 1,
    analyses: 4,
};
/// One message in this many is dropped, and one in this many duplicated.
const FAULT_EVERY: usize = 1_000;
/// Messages at either end that carry no fault: a drop only violates the
/// required-messages property when a later message from the same
/// producer was received.
const FAULT_MARGIN: usize = 64;
/// The properties the compiled registry checks, in the DSL of `jmst-props`.
pub const PROPERTIES: &str = "everything = required\nno_dupes = no_duplicates\n\
                              in_order = ordered\nuntampered = integrity\n";
/// Busy threads: the calling thread. The speed sampler's helper is
/// pinned to the same CPU and mostly asleep.
pub const BUSY_THREADS: usize = 1;

/// The generated trace and its ground truth.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Events in canonical `(at, seq)` order.
    pub events: Vec<Event>,
    /// Messages sent but never received.
    pub drops: usize,
    /// Messages received twice.
    pub duplicates: usize,
    /// Messages sent.
    pub messages: usize,
}

/// Generates a trace of `messages` sends for `seed`.
pub fn generate(seed: u64, messages: usize) -> Generated {
    let mut rng = SimRng::seed_from_u64(seed).derive(0xA0D1_7000);
    let queue = Destination::queue("audit");
    let endpoint = EndpointId::for_queue(QueueName::new("audit"));
    // Fault positions: disjoint, away from either end.
    let faults = messages / FAULT_EVERY;
    let mut fault_at = vec![Fault::None; messages];
    for kind in [Fault::Drop, Fault::Duplicate] {
        let mut placed = 0;
        while placed < faults {
            let k = FAULT_MARGIN + rng.below((messages - 2 * FAULT_MARGIN) as u64) as usize;
            if fault_at[k] == Fault::None {
                fault_at[k] = kind;
                placed += 1;
            }
        }
    }

    let mut timed: Vec<(u64, EventKind)> = Vec::with_capacity(2 * messages + 8);
    timed.push((0, EventKind::PhaseStarted { phase: Phase::Run }));
    for p in 1..=PRODUCERS {
        timed.push((
            1,
            EventKind::ProducerCreated {
                producer: ProducerId::from_raw(p),
                destination: queue.clone(),
                transacted: false,
            },
        ));
    }
    for c in 1..=CONSUMERS {
        timed.push((
            2,
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(c),
                endpoint: endpoint.clone(),
                session_mode: SessionMode::AutoAcknowledge,
                selector: None,
            },
        ));
    }
    // Sends 20 µs apart (plus 0–8 µs), each received 1 ms later; receive times
    // stay in send order, so the only violations are the injected ones.
    let mut sequences = [0u64; PRODUCERS as usize];
    for (k, fault) in fault_at.iter().enumerate() {
        let producer = rng.below(PRODUCERS);
        let sequence = sequences[producer as usize];
        sequences[producer as usize] += 1;
        let sent_ns = 1_000_000 + k as u64 * 20_000 + rng.below(8_000);
        let record = MessageRecord {
            message: MessageId::from_raw(k as u64 + 1),
            producer: ProducerId::from_raw(producer + 1),
            sequence,
            destination: queue.clone(),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: Timestamp::from_nanos(sent_ns),
            body_bytes: 256,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        let consumer = 1 + rng.below(CONSUMERS);
        let receive = |record: MessageRecord| EventKind::Receive {
            consumer: ConsumerId::from_raw(consumer),
            endpoint: endpoint.clone(),
            record,
            session: SessionId::from_raw(100 + consumer),
            tx: None,
        };
        let received_ns = sent_ns + 1_000_000;
        match fault {
            Fault::None => timed.push((received_ns, receive(record.clone()))),
            Fault::Drop => {}
            Fault::Duplicate => {
                timed.push((received_ns, receive(record.clone())));
                timed.push((received_ns + 1_000, receive(record.clone())));
            }
        }
        timed.push((
            sent_ns,
            EventKind::Send {
                record,
                session: SessionId::from_raw(producer + 1),
                tx: None,
            },
        ));
    }
    timed.sort_by_key(|(at, _)| *at);
    let events = timed
        .into_iter()
        .enumerate()
        .map(|(seq, (at, kind))| Event {
            seq: seq as u64,
            at: Timestamp::from_nanos(at),
            node: NodeId::from_raw(0),
            kind,
        })
        .collect();
    Generated {
        events,
        drops: faults,
        duplicates: faults,
        messages,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Duplicate,
}

/// The analyzer every path judges with: all built-in checks plus the
/// compiled [`PROPERTIES`] registry.
pub fn analyzer(rec: &mut Recorder, parent: u64) -> Analyzer {
    let span = rec.begin("props.compile", parent);
    let specs = jmst_props::parse_properties(PROPERTIES).expect("the property text parses");
    let registry = jmst_props::compile_registry(&specs);
    rec.end(span, specs.len() as u64);
    Analyzer::new().with_registry(registry)
}

/// What one pass measured and found.
#[derive(Debug)]
pub struct Pass {
    /// Events in the trace.
    pub events: usize,
    /// Encode, decode and append of every event.
    pub record: Timed,
    /// Each salvage, partition and replay to a verdict.
    pub resume: Vec<Timed>,
    /// The sort plus each batch analysis.
    pub analyze: Vec<Timed>,
    /// Host-speed probes taken during the pass, and their median time.
    pub probes: (usize, Duration),
    /// Journal size on disk.
    pub journal_bytes: u64,
    /// Frames that failed to decode, plus records the salvage lost.
    pub damaged: u64,
    /// Checks that failed, each described.
    pub problems: Vec<String>,
    /// Streaming-analyzer state just before `finish`.
    pub state_bytes: usize,
}

/// Records `generated` once, then resumes and analyzes it as often as
/// `sizing` says, with the journal in a fresh directory under `scratch`
/// that is removed on every exit path.
pub fn pass(
    generated: &Generated,
    analyzer: &Analyzer,
    sizing: Sizing,
    scratch: &Path,
    rec: &mut Recorder,
    parent: u64,
) -> std::io::Result<Pass> {
    let dir = TempDir::new_in(scratch, "audit")?;
    let path = dir.path().join("campaign.journal");
    let key = JournalKey::from_passphrase("jmsbench");
    let n = generated.events.len();
    let mut problems = Vec::new();
    let mut damaged = 0u64;
    let events = generated.events.clone();

    let sampler = SpeedSampler::start()?;
    // Record.
    let stretch = sampler.begin();
    let mut writer = JournalWriter::create(&path, &key).map_err(io_error)?;
    let opening = [
        JournalRecord::CampaignStarted {
            campaign: "trace_audit".to_owned(),
            tests: vec!["audit".to_owned()],
            spec_digest: schedule_digest(&["audit"]),
        },
        JournalRecord::TestStarted {
            index: 0,
            name: "audit".to_owned(),
            attempt: 1,
        },
    ];
    for record in &opening {
        writer.append(record).map_err(io_error)?;
    }
    let mut decoded = Vec::with_capacity(n);
    let mut frame = Vec::new();
    for event in events {
        frame.clear();
        let span = rec.begin("harness.frame_encode", parent);
        write_frame(&mut frame, &WireMessage::Event { event }).map_err(io_error)?;
        rec.end(span, 1);
        let span = rec.begin("harness.frame_decode", parent);
        let read = read_frame(&mut frame.as_slice());
        rec.end(span, 1);
        let event = match read {
            Ok(Some(WireMessage::Event { event })) => event,
            _ => {
                damaged += 1;
                continue;
            }
        };
        let record = JournalRecord::Event { index: 0, event };
        let span = rec.begin("store.journal_append", parent);
        writer.append(&record).map_err(io_error)?;
        rec.end(span, 1);
        let JournalRecord::Event { event, .. } = record else {
            unreachable!("built as an event record above")
        };
        decoded.push(event);
    }
    let closing = [
        JournalRecord::TestFinished {
            index: 0,
            name: "audit".to_owned(),
            verdict: VerdictRecord {
                status: "recorded".to_owned(),
                detail: String::new(),
                violations: 0,
                sends: generated.messages as u64,
                receives: 0,
            },
        },
        JournalRecord::CampaignFinished {
            passed: 1,
            violated: 0,
            failed: 0,
        },
    ];
    for record in &closing {
        writer.append(record).map_err(io_error)?;
    }
    let record = sampler.end(stretch);
    // Write the journal back before timing the resume, so the resume
    // does not compete with the kernel flushing this pass's pages.
    writer.sync().map_err(io_error)?;
    drop(writer);
    let journal_bytes = std::fs::metadata(&path)?.len();

    // Resume, as often as the sizing says; every replay must agree.
    let expected_records = n + opening.len() + closing.len();
    let mut resumes = Vec::with_capacity(sizing.resumes);
    let mut replayed = None;
    for _ in 0..sizing.resumes.max(1) {
        let stretch = sampler.begin();
        let (report, resume_damage) =
            resume(&path, &key, analyzer, expected_records, rec, parent).map_err(io_error)?;
        resumes.push(sampler.end(stretch));
        if replayed.as_ref().is_some_and(|first| first != &report) {
            problems.push("repeated resumes disagree".to_owned());
        }
        replayed.get_or_insert(report);
        if let Some((lost, problem)) = resume_damage {
            damaged = damaged.max(lost);
            problems.push(problem);
        }
    }
    let replayed = replayed.expect("at least one resume");
    drop(dir);

    // Analyze: one sort, then repeated batch analyses.
    let stretch = sampler.begin();
    let span = rec.begin("store.trace_sort", parent);
    let trace = Trace::from_events(decoded);
    rec.end(span, n as u64);
    let sort = sampler.end(stretch);
    let mut analyses = Vec::with_capacity(sizing.analyses);
    let mut batch = None;
    for _ in 0..sizing.analyses.max(1) {
        let stretch = sampler.begin();
        let span = rec.begin("core.analyze", parent);
        let report = analyzer.analyze(&trace);
        rec.end(span, n as u64);
        analyses.push(sort + sampler.end(stretch));
        if batch.as_ref().is_some_and(|first| first != &report) {
            problems.push("repeated batch analyses disagree".to_owned());
        }
        batch.get_or_insert(report);
    }
    let batch = batch.expect("at least one analysis");
    drop(trace);

    // The streaming verdict over the generated events, never encoded.
    let mut streaming = analyzer.streaming();
    let span = rec.begin("core.observe", parent);
    for event in &generated.events {
        streaming.observe(event);
    }
    rec.end(span, n as u64);
    let state_bytes = streaming.state_bytes();
    let span = rec.begin("core.finish", parent);
    let streamed = streaming.finish();
    rec.end(span, 1);

    problems.extend(check_reports(generated, &replayed, &batch, &streamed));
    Ok(Pass {
        events: n,
        record,
        resume: resumes,
        analyze: analyses,
        probes: sampler.summary(),
        journal_bytes,
        damaged,
        problems,
        state_bytes,
    })
}

/// One resume as a restarted prince does it: salvage the journal,
/// partition it into tests and replay the completed one to a verdict.
/// Also returns, when the salvage lost records, how many and why.
fn resume(
    path: &Path,
    key: &JournalKey,
    analyzer: &Analyzer,
    expected_records: usize,
    rec: &mut Recorder,
    parent: u64,
) -> Result<(AnalysisReport, Option<(u64, String)>), JournalError> {
    let span = rec.begin("store.journal_salvage", parent);
    let salvage = Journal::salvage(path, key)?;
    rec.end(span, salvage.records.len() as u64);
    let mut damage = None;
    if !salvage.intact() || salvage.records.len() != expected_records {
        damage = Some((
            expected_records.abs_diff(salvage.records.len()) as u64,
            format!(
                "journal salvage: {} of {expected_records} records, damage {:?}",
                salvage.records.len(),
                salvage.damage
            ),
        ));
    }
    let span = rec.begin("core.partition", parent);
    let replay = partition_journal(&salvage.records);
    rec.end(span, salvage.records.len() as u64);
    drop(salvage);
    let events = match <[_; 1]>::try_from(replay.completed) {
        Ok([test]) => test.events,
        Err(completed) => {
            let problem = format!("journal holds {} completed tests, not 1", completed.len());
            damage.get_or_insert((0, problem));
            completed.into_iter().flat_map(|t| t.events).collect()
        }
    };
    let n = events.len() as u64;
    let span = rec.begin("core.replay", parent);
    let report = replay_events(analyzer, events);
    rec.end(span, n);
    Ok((report, damage))
}

/// The replayed, batch and streaming reports must be equal, and their
/// violations must be exactly the injected faults.
fn check_reports(
    generated: &Generated,
    replayed: &AnalysisReport,
    batch: &AnalysisReport,
    streamed: &AnalysisReport,
) -> Vec<String> {
    let mut problems = Vec::new();
    if replayed != batch {
        problems.push("replayed report differs from the batch report".to_owned());
    }
    if streamed != batch {
        problems.push("streaming report differs from the batch report".to_owned());
    }
    let named = |name: &str| {
        batch
            .named
            .iter()
            .find(|row| row.name == name)
            .map_or(usize::MAX, |row| row.violations)
    };
    let checks = [
        (
            "required-messages (built-in + everything)",
            batch.count_of(PropertyKind::RequiredMessages),
            2 * generated.drops,
        ),
        (
            "duplicate-delivery (built-in + no_dupes)",
            batch.count_of(PropertyKind::DuplicateDelivery),
            2 * generated.duplicates,
        ),
        ("everything", named("everything"), generated.drops),
        ("no_dupes", named("no_dupes"), generated.duplicates),
        ("in_order", named("in_order"), 0),
        ("untampered", named("untampered"), 0),
        (
            "all violations",
            batch.violations.len(),
            2 * (generated.drops + generated.duplicates),
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            problems.push(format!("{what}: {got} violations, expected {want}"));
        }
    }
    problems
}

fn io_error(error: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(generated: &Generated, f: impl Fn(&EventKind) -> bool) -> usize {
        generated.events.iter().filter(|e| f(&e.kind)).count()
    }

    #[test]
    fn trace_has_the_documented_size_and_fault_counts() {
        let generated = generate(5, PRIMARY.messages);
        assert_eq!(generated.drops, 150);
        assert_eq!(generated.duplicates, 150);
        let sends = count(&generated, |k| matches!(k, EventKind::Send { .. }));
        let receives = count(&generated, |k| matches!(k, EventKind::Receive { .. }));
        assert_eq!(sends, PRIMARY.messages);
        assert_eq!(
            receives,
            PRIMARY.messages - generated.drops + generated.duplicates
        );
        assert!((290_000..=310_000).contains(&generated.events.len()));
        let companion = generate(5, COMPANION.messages);
        assert_eq!((companion.drops, companion.duplicates), (25, 25));
    }

    #[test]
    fn events_are_in_canonical_order_and_faults_disjoint() {
        let generated = generate(9, PRIMARY.messages);
        assert!(generated
            .events
            .windows(2)
            .all(|pair| pair[0].ord_key() < pair[1].ord_key()));
        let mut receipts = std::collections::HashMap::<MessageId, usize>::new();
        for event in &generated.events {
            if let EventKind::Receive { record, .. } = &event.kind {
                *receipts.entry(record.message).or_default() += 1;
            }
        }
        let twice = receipts.values().filter(|&&n| n == 2).count();
        assert_eq!(twice, generated.duplicates);
        assert_eq!(receipts.len(), PRIMARY.messages - generated.drops);
    }

    #[test]
    fn analyzer_finds_exactly_the_injected_faults() {
        let generated = generate(13, COMPANION.messages);
        let tracer = crate::spans::Tracer::new(false);
        let mut rec = tracer.recorder(crate::spans::Workload::Audit);
        let analyzer = analyzer(&mut rec, 0);
        let report = analyzer.analyze(&Trace::from_events(generated.events.clone()));
        assert!(check_reports(&generated, &report, &report, &report).is_empty());
    }

    #[test]
    fn seeds_change_the_trace() {
        let a = generate(1, COMPANION.messages);
        let b = generate(2, COMPANION.messages);
        assert_ne!(a.events[100], b.events[100]);
    }
}
