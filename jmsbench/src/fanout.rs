//! `topic_fanout`: one producer thread publishes back to back to a topic
//! with 64 subscribers, which the calling thread drains in batches.
//!
//! The subscriber mix exercises each routing path of the broker:
//! 16 take every message, 32 select `region = '<r>' AND size BETWEEN 100
//! AND 4096` (the equality-index path, spread over 4 regions) and 16
//! select `size BETWEEN lo AND lo+127`, which the broker evaluates for
//! every message. Expected per-subscriber counts come from plain-Rust
//! predicates over the generated messages, never from the selector
//! engine under test.

use crate::clock::StealMeter;
use crate::spans::{Recorder, Tracer, Workload};
use jmst_api::destination::Destination;
use jmst_api::message::{Message, MessageDraft};
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Connection, Consumer, Producer, Provider, Session};
use jmst_api::selector::Selector;
use jmst_api::value::Value;
use jmst_broker::ReferenceBroker;
use jmst_sim::SimRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages published per round.
pub const MESSAGES: usize = 100_000;
/// Message body size.
pub const BODY_BYTES: usize = 256;
/// The `region` values messages cycle over.
pub const REGIONS: [&str; 4] = ["emea", "amer", "apac", "latam"];
/// Subscribers taking every message.
const ALL_SUBSCRIBERS: usize = 16;
/// Subscribers on `region = … AND size BETWEEN 100 AND 4096`.
const REGION_SUBSCRIBERS: usize = 32;
/// Subscribers on `size BETWEEN lo AND lo+127`.
const RANGE_SUBSCRIBERS: usize = 16;
/// Most messages one `try_receive_batch` call may take.
const BATCH: usize = 256;
/// How long the drainer watches the wake flags before it parks. The
/// producer wakes some subscriber every few microseconds, so within a
/// round the drainer practically never parks: a parked thread waits for
/// the host to run its virtual CPU again, and on a shared host that wait
/// swings the round time by a third.
const SPIN_LIMIT: Duration = Duration::from_micros(200);
/// Longest the drainer sleeps without a wake, covering any wake that
/// arrives between its last sweep and its park.
const PARK_LIMIT: Duration = Duration::from_millis(1);
/// A round that has not drained by then counts as failed, never hangs.
const ROUND_LIMIT: Duration = Duration::from_secs(60);

/// Busy threads: the producer and the draining caller (which parks
/// when no subscriber has had anything to take for [`SPIN_LIMIT`]).
pub const BUSY_THREADS: usize = 2;

/// One subscriber's filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filter {
    /// No selector.
    All,
    /// `region = REGIONS[region] AND size BETWEEN 100 AND 4096`.
    RegionSized {
        /// Index into [`REGIONS`].
        region: usize,
    },
    /// `size BETWEEN lo AND lo+127`.
    SizeRange {
        /// Lower bound.
        lo: i32,
    },
}

impl Filter {
    /// The JMS selector text handed to the broker.
    pub fn selector(self) -> Option<String> {
        match self {
            Filter::All => None,
            Filter::RegionSized { region } => Some(format!(
                "region = '{}' AND size BETWEEN 100 AND 4096",
                REGIONS[region]
            )),
            Filter::SizeRange { lo } => Some(format!("size BETWEEN {lo} AND {}", lo + 127)),
        }
    }

    /// The same filter as a plain predicate over a message's fields.
    pub fn accepts(self, region: usize, size: i32) -> bool {
        match self {
            Filter::All => true,
            Filter::RegionSized { region: wanted } => {
                region == wanted && (100..=4096).contains(&size)
            }
            Filter::SizeRange { lo } => (lo..=lo + 127).contains(&size),
        }
    }
}

/// The seed-derived inputs of the workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One filter per subscriber, in subscription order.
    pub filters: Vec<Filter>,
    region_phase: usize,
    size_phase: usize,
}

impl Plan {
    /// Generates the subscriber mix and the message cycle phases.
    pub fn generate(seed: u64) -> Plan {
        let mut rng = SimRng::seed_from_u64(seed).derive(0xFA2_0075);
        let mut filters =
            Vec::with_capacity(ALL_SUBSCRIBERS + REGION_SUBSCRIBERS + RANGE_SUBSCRIBERS);
        filters.extend(std::iter::repeat_n(Filter::All, ALL_SUBSCRIBERS));
        filters.extend((0..REGION_SUBSCRIBERS).map(|k| Filter::RegionSized {
            region: k % REGIONS.len(),
        }));
        // Every range lies inside 0..=255, so each range subscriber takes
        // half the messages whatever the seed: the seed changes which
        // messages, not how much work a round is.
        filters.extend((0..RANGE_SUBSCRIBERS).map(|_| Filter::SizeRange {
            lo: rng.below(129) as i32,
        }));
        // Subscription order is part of the input.
        for i in (1..filters.len()).rev() {
            filters.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Plan {
            filters,
            region_phase: rng.below(REGIONS.len() as u64) as usize,
            size_phase: rng.below(256) as usize,
        }
    }

    /// Message `i`'s `(region index, size)`: region cycles over the four
    /// values and size over 0..=255.
    pub fn message(&self, i: usize) -> (usize, i32) {
        (
            (i + self.region_phase) % REGIONS.len(),
            ((i + self.size_phase) % 256) as i32,
        )
    }

    /// Ground truth: how many of `messages` messages each subscriber must
    /// receive.
    pub fn expected(&self, messages: usize) -> Vec<u64> {
        let mut counts = vec![0u64; self.filters.len()];
        for i in 0..messages {
            let (region, size) = self.message(i);
            for (count, filter) in counts.iter_mut().zip(&self.filters) {
                *count += u64::from(filter.accepts(region, size));
            }
        }
        counts
    }

    fn draft(&self, i: usize, body: &str) -> MessageDraft {
        let (region, size) = self.message(i);
        MessageDraft::text(body)
            .property("region", Value::String(REGIONS[region].to_owned()))
            .and_then(|draft| draft.property("size", Value::Int(size)))
            .expect("legal property names")
    }
}

/// A broker with the 64 subscriptions in place.
pub struct Rig {
    plan: Plan,
    expected: Vec<u64>,
    connections: Vec<Box<dyn Connection>>,
    sessions: Vec<Box<dyn Session>>,
    consumers: Vec<Box<dyn Consumer>>,
    /// Set by each subscriber's broker waker when a message arrives.
    dirty: Arc<Vec<AtomicBool>>,
    producer: Option<Box<dyn Producer>>,
    _broker: Arc<ReferenceBroker>,
}

/// Builds the broker, subscribes every filter and opens the producer.
/// Rounds must be drained from the calling thread, which the
/// subscribers' wakers unpark.
pub fn setup(seed: u64, rec: &mut Recorder, parent: u64) -> Rig {
    let plan = Plan::generate(seed);
    let expected = plan.expected(MESSAGES);
    let broker = Arc::new(ReferenceBroker::new());
    let topic = Destination::topic("fanout");
    let mut rx_connection = broker.create_connection(None).expect("consumer connection");
    let mut rx_session = rx_connection
        .create_session(SessionMode::AutoAcknowledge)
        .expect("consumer session");
    let dirty: Arc<Vec<AtomicBool>> =
        Arc::new(plan.filters.iter().map(|_| AtomicBool::new(true)).collect());
    let drainer = std::thread::current();
    let consumers = plan
        .filters
        .iter()
        .enumerate()
        .map(|(k, filter)| {
            let selector = filter.selector();
            let span = rec.begin("broker.subscribe", parent);
            let mut consumer = rx_session
                .create_consumer(&topic, selector.as_deref())
                .expect("the broker accepts every generated selector");
            rec.end(span, 1);
            let (dirty, drainer) = (Arc::clone(&dirty), drainer.clone());
            let wakeable = consumer.set_waker(Arc::new(move || {
                dirty[k].store(true, Ordering::Release);
                drainer.unpark();
            }));
            assert!(wakeable, "reference broker consumers accept wakers");
            consumer
        })
        .collect();
    rx_connection.start().expect("start delivery");
    let mut tx_connection = broker.create_connection(None).expect("producer connection");
    let mut tx_session = tx_connection
        .create_session(SessionMode::AutoAcknowledge)
        .expect("producer session");
    let producer = tx_session.create_producer(&topic).expect("topic producer");
    Rig {
        plan,
        expected,
        connections: vec![rx_connection, tx_connection],
        sessions: vec![rx_session, tx_session],
        consumers,
        dirty,
        producer: Some(producer),
        _broker: broker,
    }
}

impl Rig {
    /// Closes every session and connection.
    pub fn close(mut self) {
        drop(self.producer.take());
        for mut consumer in self.consumers.drain(..) {
            let _ = consumer.close();
        }
        for mut session in self.sessions.drain(..) {
            let _ = session.close();
        }
        for mut connection in self.connections.drain(..) {
            let _ = connection.close();
        }
    }
}

/// Watches the wake flags for up to `limit`; whether one was raised.
fn await_wake(dirty: &[AtomicBool], limit: Duration) -> bool {
    let start = Instant::now();
    loop {
        if dirty.iter().any(|flag| flag.load(Ordering::Acquire)) {
            return true;
        }
        if start.elapsed() >= limit {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// What one round measured.
pub struct Round {
    /// From the first publish until every expected delivery arrived.
    pub elapsed: Duration,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during `elapsed`.
    pub steal_share: f64,
    /// Deliveries across all subscribers.
    pub deliveries: u64,
    /// Expected deliveries across all subscribers.
    pub expected: u64,
    /// Sum over subscribers of |received − expected|, plus receive
    /// errors.
    pub mismatched: u64,
    /// Publishes the broker refused.
    pub publish_failures: u64,
    /// Whether the drain gave up at [`ROUND_LIMIT`].
    pub timed_out: bool,
    /// Per-call `try_receive_batch` time in ns, when tracing.
    pub receive_batch_ns: Vec<u32>,
    /// `try_receive_batch` calls.
    pub receive_calls: u64,
    /// Non-empty `try_receive_batch` calls.
    pub receive_hits: u64,
    /// Selectors whose engine count differs from the plain predicate's
    /// (checked only when `eval_selectors` was set).
    pub selector_mismatches: u64,
}

/// Publishes one round of [`MESSAGES`] and drains every delivery. With
/// `eval_selectors` (traced runs only) it also times `Selector::matches`
/// over the round's messages.
pub fn round(
    rig: &mut Rig,
    tracer: &Arc<Tracer>,
    rec: &mut Recorder,
    parent: u64,
    eval_selectors: bool,
) -> Round {
    let traced = tracer.enabled();
    let keep_sent = traced && eval_selectors;
    let plan = &rig.plan;
    let mut producer = rig
        .producer
        .take()
        .expect("producer present between rounds");
    let mut counts = vec![0u64; rig.consumers.len()];
    let mut receive_batch_ns = Vec::new();
    let (mut calls, mut hits, mut receive_errors) = (0u64, 0u64, 0u64);
    let mut timed_out = false;
    let steal = StealMeter::start();
    let start = Instant::now();
    let deadline = start + ROUND_LIMIT;

    let (sent, publish_failures, elapsed, steal_share) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut prec = tracer.recorder(Workload::Fanout);
            let body = "x".repeat(BODY_BYTES);
            let mut sent = Vec::with_capacity(if keep_sent { MESSAGES } else { 0 });
            let mut failures = 0u64;
            for i in 0..MESSAGES {
                let draft = plan.draft(i, &body);
                let span = prec.begin("broker.publish", parent);
                let result = producer.send(draft);
                prec.end(span, 1);
                match result {
                    Ok(message) if keep_sent => sent.push(message),
                    Ok(_) => {}
                    Err(_) => failures += 1,
                }
            }
            (producer, sent, failures)
        });

        let mut unmet = counts
            .iter()
            .zip(&rig.expected)
            .filter(|(got, want)| got < want)
            .count();
        while unmet > 0 {
            // Drain only the subscribers whose waker fired; park when none
            // did, so the drainer never contends with the publisher on
            // empty endpoints.
            let sweep = rec.begin("broker.receive_sweep", parent);
            let mut taken = 0u64;
            for (k, consumer) in rig.consumers.iter_mut().enumerate() {
                if !rig.dirty[k].swap(false, Ordering::AcqRel) {
                    continue;
                }
                loop {
                    let call_start = traced.then(Instant::now);
                    let batch = consumer.try_receive_batch(BATCH);
                    if let Some(call_start) = call_start {
                        let ns = call_start.elapsed().as_nanos();
                        receive_batch_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                    }
                    calls += 1;
                    let n = match batch {
                        Ok(batch) => batch.len() as u64,
                        Err(_) => {
                            receive_errors += 1;
                            0
                        }
                    };
                    if n > 0 {
                        hits += 1;
                        let before = counts[k];
                        counts[k] += n;
                        if before < rig.expected[k] && counts[k] >= rig.expected[k] {
                            unmet -= 1;
                        }
                    }
                    taken += n;
                    if n < BATCH as u64 {
                        break;
                    }
                }
            }
            rec.end(sweep, taken);
            if Instant::now() >= deadline {
                timed_out = true;
                break;
            }
            if taken == 0 && !await_wake(&rig.dirty, SPIN_LIMIT) {
                std::thread::park_timeout(PARK_LIMIT);
            }
        }
        let elapsed = start.elapsed();
        let steal_share = steal.share();
        let (producer, sent, failures) = publisher.join().expect("publisher thread panicked");
        rig.producer = Some(producer);
        (sent, failures, elapsed, steal_share)
    });

    // Anything beyond the expected counts would already be routed, since
    // publishing is synchronous: one last sweep catches surplus.
    for (k, consumer) in rig.consumers.iter_mut().enumerate() {
        while let Ok(batch) = consumer.try_receive_batch(BATCH) {
            if batch.is_empty() {
                break;
            }
            counts[k] += batch.len() as u64;
        }
    }

    let selector_mismatches = if keep_sent {
        selector_eval(plan, &rig.expected, &sent, rec, parent)
    } else {
        0
    };
    let mismatched = counts
        .iter()
        .zip(&rig.expected)
        .map(|(got, want)| got.abs_diff(*want))
        .sum::<u64>()
        + receive_errors;
    Round {
        elapsed,
        steal_share,
        deliveries: counts.iter().sum(),
        expected: rig.expected.iter().sum(),
        mismatched,
        publish_failures,
        timed_out,
        receive_batch_ns,
        receive_calls: calls,
        receive_hits: hits,
        selector_mismatches,
    }
}

/// Times `Selector::matches` over the round's messages for every
/// selecting subscriber, and counts selectors whose match count differs
/// from the plain predicate's.
fn selector_eval(
    plan: &Plan,
    expected: &[u64],
    sent: &[Message],
    rec: &mut Recorder,
    parent: u64,
) -> u64 {
    let mut mismatches = 0;
    for (filter, &want) in plan.filters.iter().zip(expected) {
        let Some(text) = filter.selector() else {
            continue;
        };
        let selector = Selector::parse(&text).expect("generated selectors parse");
        let span = rec.begin("api.selector_eval", parent);
        let matched = sent.iter().filter(|m| selector.matches(m)).count() as u64;
        rec.end(span, sent.len() as u64);
        mismatches += u64::from(matched != want);
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_the_documented_subscriber_mix() {
        let plan = Plan::generate(7);
        let count = |f: fn(&Filter) -> bool| plan.filters.iter().filter(|x| f(x)).count();
        assert_eq!(count(|f| matches!(f, Filter::All)), 16);
        assert_eq!(count(|f| matches!(f, Filter::RegionSized { .. })), 32);
        assert_eq!(count(|f| matches!(f, Filter::SizeRange { .. })), 16);
        for region in 0..REGIONS.len() {
            assert_eq!(
                count_region(&plan, region),
                8,
                "region subscribers spread evenly"
            );
        }
    }

    fn count_region(plan: &Plan, wanted: usize) -> usize {
        plan.filters
            .iter()
            .filter(|f| matches!(f, Filter::RegionSized { region } if *region == wanted))
            .count()
    }

    #[test]
    fn ground_truth_matches_closed_form_counts() {
        let plan = Plan::generate(11);
        // 1024 messages = 4 full size cycles; each cycle covers every size
        // once and, since 4 divides 256, ties each size to one region.
        let expected = plan.expected(1024);
        for (filter, got) in plan.filters.iter().zip(&expected) {
            let want = match *filter {
                Filter::All => 1024,
                // Sizes 100..=255 of one residue class mod 4: 39 per cycle.
                Filter::RegionSized { .. } => 4 * 39,
                Filter::SizeRange { .. } => 4 * 128,
            };
            assert_eq!(*got, want, "{filter:?}");
        }
    }

    #[test]
    fn both_conjuncts_of_the_region_selector_count() {
        let filter = Filter::RegionSized { region: 0 };
        assert!(filter.accepts(0, 100));
        assert!(!filter.accepts(0, 99), "size below 100 is excluded");
        assert!(!filter.accepts(1, 200), "other regions are excluded");
        assert!(Filter::SizeRange { lo: 10 }.accepts(10, 137));
        assert!(!Filter::SizeRange { lo: 10 }.accepts(10, 138));
    }

    #[test]
    fn plain_predicates_agree_with_the_selector_text() {
        let plan = Plan::generate(3);
        for filter in &plan.filters {
            let Some(text) = filter.selector() else {
                continue;
            };
            let selector = Selector::parse(&text).expect("parses");
            for i in 0..512 {
                let (region, size) = plan.message(i);
                let message = plan.draft(i, "").stamp(jmst_api::message::Stamp {
                    id: jmst_api::id::MessageId::from_raw(i as u64 + 1),
                    producer: jmst_api::id::ProducerId::from_raw(1),
                    sequence: i as u64,
                    destination: Destination::topic("fanout"),
                    sent_at: jmst_api::time::Timestamp::ZERO,
                });
                assert_eq!(
                    selector.matches(&message),
                    filter.accepts(region, size),
                    "{text} on {i}"
                );
            }
        }
    }

    #[test]
    fn round_size_does_not_depend_on_the_seed() {
        let total = |seed| Plan::generate(seed).expected(1024).iter().sum::<u64>();
        assert_eq!(total(1), total(2));
        assert_eq!(total(1), 16 * 1024 + 32 * 4 * 39 + 16 * 4 * 128);
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a = Plan::generate(1);
        let b = Plan::generate(2);
        assert!(a.filters != b.filters || a.message(0) != b.message(0));
    }
}
