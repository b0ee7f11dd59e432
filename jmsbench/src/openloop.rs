//! `openloop_1m`: 1,000,000 `jmst-load` virtual clients send Poisson
//! arrivals totalling 20,000 msg/s of 1 KiB bodies into one queue of the
//! reference broker; a `DrainPump` drains two competing consumers.
//!
//! Most clients sit idle, so the cost lands on the reactor's start-up
//! sweep, timer wheel and ready list rather than on the broker. The
//! sweep happens inside `LoadEngine::run`, inside the measured window;
//! there is deliberately no warm-up to hide it.

use crate::clock::StealMeter;
use crate::spans::{Recorder, Tracer, Workload};
use jmst_api::destination::Destination;
use jmst_api::error::Error;
use jmst_api::id::ConsumerId;
use jmst_api::message::{Message, MessageDraft};
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Connection, Consumer, Producer, Provider, Session};
use jmst_api::value::Value;
use jmst_broker::ReferenceBroker;
use jmst_load::{ClientSpec, DrainPump, LoadEngine, SendDisposition, Transport, INTENDED_NS_PROP};
use jmst_sim::{ArrivalProcess, SimRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Virtual clients.
pub const CLIENTS: usize = 1_000_000;
/// Aggregate offered rate over all clients.
pub const RATE_PER_SEC: f64 = 20_000.0;
/// Message body size.
pub const BODY_BYTES: usize = 1024;
/// Competing consumers on the queue.
const CONSUMERS: usize = 2;
/// Load-engine reactor workers.
const ENGINE_WORKERS: usize = 1;
/// How long deliveries may take to catch up with sends after the window
/// closes before the missing ones count as lost.
const SETTLE_LIMIT: Duration = Duration::from_secs(20);

/// Busy threads the workload runs: the engine workers plus the drain
/// pump's single reactor worker. The calling thread and the pump's
/// owner thread only wait in `join`.
pub const BUSY_THREADS: usize = ENGINE_WORKERS + 1;

/// The generated client population.
pub struct Inputs {
    specs: Vec<ClientSpec>,
}

/// Builds the client population: one Poisson arrival process per client
/// at `RATE_PER_SEC / CLIENTS`, each seeded from the run seed.
pub fn setup(seed: u64, rec: &mut Recorder, parent: u64) -> Inputs {
    let span = rec.begin("sim.client_specs", parent);
    let root = SimRng::seed_from_u64(seed);
    let per_client = ArrivalProcess::poisson(RATE_PER_SEC / CLIENTS as f64);
    let specs = (0..CLIENTS as u64)
        .map(|index| ClientSpec::new(per_client.generator(root.derive(index))))
        .collect();
    rec.end(span, CLIENTS as u64);
    Inputs { specs }
}

/// What one window measured.
pub struct Outcome {
    /// The measured window.
    pub window: Duration,
    /// Successful sends.
    pub sends: u64,
    /// Sends or connects the transport deferred.
    pub retries: u64,
    /// Clients aborted by the transport.
    pub aborted: u64,
    /// Messages the drain pump received.
    pub received: u64,
    /// Received messages without an intended-time stamp.
    pub unstamped: u64,
    /// Exact send lag (actual − intended send time) of every send, ns.
    pub send_lag_ns: Vec<u64>,
    /// Exact delivery latency (receive − intended send time), ns.
    pub delivery_ns: Vec<u64>,
    /// From the `LoadEngine::run` call to the first `Transport::send`.
    pub spawn_to_first_send: Option<Duration>,
    /// From the end of the engine run until every send was received.
    pub settle: Duration,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the engine run (`steal` in `/proc/stat`).
    pub steal_share: f64,
}

/// The provider objects one engine worker sends through.
type ProducerChain = (Box<dyn Connection>, Box<dyn Session>, Box<dyn Producer>);

/// Sends through one lazily opened producer chain, stamping each message
/// with its intended send time on the drain pump's epoch.
struct QueueTransport {
    broker: Arc<ReferenceBroker>,
    epoch: Instant,
    destination: Destination,
    chain: Option<ProducerChain>,
    body: String,
    first_send: Arc<OnceLock<Instant>>,
    lag_ns: Vec<u64>,
    lag_out: Arc<Mutex<Vec<u64>>>,
    rec: Recorder,
    parent: u64,
}

impl QueueTransport {
    fn connect(&mut self) -> Result<(), Error> {
        let mut connection = self.broker.create_connection(None)?;
        let mut session = connection.create_session(SessionMode::AutoAcknowledge)?;
        let producer = session.create_producer(&self.destination)?;
        self.chain = Some((connection, session, producer));
        Ok(())
    }
}

impl Transport for QueueTransport {
    fn send(
        &mut self,
        _client: u32,
        _seq: u64,
        intended: Duration,
        now: Duration,
    ) -> SendDisposition {
        self.first_send.get_or_init(Instant::now);
        if self.chain.is_none() {
            if let Err(error) = self.connect() {
                return SendDisposition::Abort(error.to_string());
            }
        }
        // The engine measures `intended` and `now` on its own epoch;
        // re-base the intended time onto the pump's epoch so delivery
        // latency is measured from the same instant.
        let lag = now.saturating_sub(intended);
        let intended_ns = self.epoch.elapsed().saturating_sub(lag).as_nanos() as i64;
        let draft = MessageDraft::text(self.body.clone())
            .property(INTENDED_NS_PROP, Value::Long(intended_ns))
            .expect("legal property name");
        let (_, _, producer) = self.chain.as_mut().expect("chain connected");
        let span = self.rec.begin("broker.queue_send", self.parent);
        let sent = producer.send(draft);
        self.rec.end(span, 1);
        match sent {
            Ok(_) => {
                // The engine records this same lag into its histogram;
                // the benchmark keeps the exact value.
                self.lag_ns.push(lag.as_nanos() as u64);
                SendDisposition::Sent
            }
            Err(_) => SendDisposition::RetryAfter(Duration::from_millis(1)),
        }
    }

    fn finish(&mut self) {
        if let Some((mut connection, mut session, _producer)) = self.chain.take() {
            let _ = session.close();
            let _ = connection.close();
        }
        self.lag_out
            .lock()
            .expect("lag store poisoned")
            .append(&mut self.lag_ns);
    }
}

/// A broker consumer that counts what the drain pump takes from it and
/// measures each message's delivery latency exactly.
struct CountingConsumer {
    inner: Box<dyn Consumer>,
    epoch: Instant,
    received: Arc<AtomicU64>,
    latency_ns: Vec<u64>,
    latency_out: Arc<Mutex<Vec<u64>>>,
    rec: Recorder,
    parent: u64,
}

impl CountingConsumer {
    fn note(&mut self, messages: &[Message]) {
        let now = self.epoch.elapsed();
        for message in messages {
            if let Some(Value::Long(nanos)) = message.properties().get(INTENDED_NS_PROP) {
                let intended = Duration::from_nanos((*nanos).max(0) as u64);
                self.latency_ns
                    .push(now.saturating_sub(intended).as_nanos() as u64);
            }
        }
        self.received
            .fetch_add(messages.len() as u64, Ordering::Release);
    }
}

impl Consumer for CountingConsumer {
    fn id(&self) -> ConsumerId {
        self.inner.id()
    }

    fn destination(&self) -> &Destination {
        self.inner.destination()
    }

    fn selector(&self) -> Option<&str> {
        self.inner.selector()
    }

    fn receive(&mut self, timeout: Option<Duration>) -> Result<Option<Message>, Error> {
        let message = self.inner.receive(timeout)?;
        if let Some(message) = &message {
            self.note(std::slice::from_ref(message));
        }
        Ok(message)
    }

    fn try_receive_batch(&mut self, max: usize) -> Result<Vec<Message>, Error> {
        let span = self.rec.begin("broker.queue_receive_batch", self.parent);
        let batch = self.inner.try_receive_batch(max)?;
        self.rec.end(span, batch.len() as u64);
        self.note(&batch);
        Ok(batch)
    }

    fn set_waker(&mut self, waker: Arc<dyn Fn() + Send + Sync>) -> bool {
        self.inner.set_waker(waker)
    }

    fn acknowledge(&mut self) -> Result<(), Error> {
        self.inner.acknowledge()
    }

    fn close(&mut self) -> Result<(), Error> {
        self.inner.close()
    }
}

impl Drop for CountingConsumer {
    fn drop(&mut self) {
        if let Ok(mut out) = self.latency_out.lock() {
            out.append(&mut self.latency_ns);
        }
    }
}

/// Runs the clients for `window` against a fresh broker and drains every
/// delivery.
pub fn run(inputs: Inputs, window: Duration, tracer: &Arc<Tracer>, parent: u64) -> Outcome {
    let mut rec = tracer.recorder(Workload::OpenLoop);
    let broker = Arc::new(ReferenceBroker::new());
    let destination = Destination::queue("openloop");
    let epoch = Instant::now();

    let received = Arc::new(AtomicU64::new(0));
    let latency_out = Arc::new(Mutex::new(Vec::new()));
    let mut rx_connection = broker
        .create_connection(None)
        .expect("reference broker accepts a connection");
    let mut rx_session = rx_connection
        .create_session(SessionMode::AutoAcknowledge)
        .expect("fresh connection opens a session");
    let consumers: Vec<Box<dyn Consumer>> = (0..CONSUMERS)
        .map(|_| {
            let inner = rx_session
                .create_consumer(&destination, None)
                .expect("queue consumer");
            Box::new(CountingConsumer {
                inner,
                epoch,
                received: Arc::clone(&received),
                latency_ns: Vec::new(),
                latency_out: Arc::clone(&latency_out),
                rec: tracer.recorder(Workload::OpenLoop),
                parent,
            }) as Box<dyn Consumer>
        })
        .collect();
    rx_connection.start().expect("start delivery");
    let pump = DrainPump::start(consumers, epoch);

    let first_send = Arc::new(OnceLock::new());
    let lag_out = Arc::new(Mutex::new(Vec::new()));
    let engine_span = rec.begin("load.engine_run", parent);
    let transports: Vec<Box<dyn Transport>> = (0..ENGINE_WORKERS)
        .map(|_| {
            Box::new(QueueTransport {
                broker: Arc::clone(&broker),
                epoch,
                destination: destination.clone(),
                chain: None,
                body: "x".repeat(BODY_BYTES),
                first_send: Arc::clone(&first_send),
                lag_ns: Vec::new(),
                lag_out: Arc::clone(&lag_out),
                rec: tracer.recorder(Workload::OpenLoop),
                parent: engine_span.id(),
            }) as Box<dyn Transport>
        })
        .collect();
    let engine_id = engine_span.id();
    let steal = StealMeter::start();
    let run_start = Instant::now();
    let report = LoadEngine::new(ENGINE_WORKERS).run(inputs.specs, transports, Some(window), None);
    let run_end = Instant::now();
    let steal_share = steal.share();
    rec.end(engine_span, report.sends);
    let spawn_to_first_send = first_send.get().map(|&first| {
        rec.record(
            "reactor.spawn_to_first_send",
            engine_id,
            run_start,
            first,
            1,
        );
        first.saturating_duration_since(run_start)
    });

    // Wait until every send has been drained, then stop the pump.
    let settle_span = rec.begin("load.drain_settle", parent);
    while received.load(Ordering::Acquire) < report.sends && run_end.elapsed() < SETTLE_LIMIT {
        std::thread::sleep(Duration::from_micros(200));
    }
    let settle = run_end.elapsed();
    rec.end(settle_span, report.sends);
    let drain = pump.stop();
    let _ = rx_session.close();
    let _ = rx_connection.close();

    let send_lag_ns = std::mem::take(&mut *lag_out.lock().expect("lag store poisoned"));
    let delivery_ns = std::mem::take(&mut *latency_out.lock().expect("latency store poisoned"));
    Outcome {
        window,
        sends: report.sends,
        retries: report.retries,
        aborted: report.aborted_clients,
        received: drain.received,
        unstamped: drain.unstamped,
        send_lag_ns,
        delivery_ns,
        spawn_to_first_send,
        settle,
        steal_share,
    }
}
