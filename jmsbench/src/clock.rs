//! The clocks that keep the benchmark's figures apart from the rest of a
//! shared host: the calling thread's CPU time, that time scaled by how
//! fast the host ran a fixed probe meanwhile, and the share of the
//! machine's CPU time the hypervisor gave to other guests ("steal").

use std::collections::BTreeMap;
use std::ops::Add;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU time the calling thread has run so far.
///
/// With paravirtual steal accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`)
/// the guest kernel leaves stolen time out of a task's CPU time, so a
/// single-threaded, CPU-bound phase timed with this clock is not slowed
/// down by a busy host. Without it the clock still excludes time other
/// processes of the guest held the CPU.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const THREAD_CPUTIME: i32 = 3;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec for the call's
    // duration, and the thread CPU clock always exists on Linux.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// Thread CPU time one [`probe`] takes on an undisturbed core of the
/// machine the README's numbers come from: the host speed that times are
/// scaled to.
const PROBE_REFERENCE: Duration = Duration::from_micros(600);
/// How long the [`SpeedSampler`] waits between two probes.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Slots of the probe's table: 8 MiB, beyond the per-core caches.
const PROBE_WORDS: usize = 1 << 20;

/// Thread CPU time of a fixed piece of work that calls none of the
/// crates under test: 16K steps of a random walk over `table`, 1K
/// inserts of small heap strings into a `BTreeMap`, then filling freshly
/// mapped pages. A shared host slows it down as it slows the audit
/// phases (a busy sibling hyperthread, contended caches and memory, page
/// faults), and a change to the program does not.
fn probe(table: &mut [u64], walk: &mut u64) -> Duration {
    let start = thread_cpu();
    let mut sum = 0u64;
    for _ in 0..16_384 {
        *walk ^= *walk << 13;
        *walk ^= *walk >> 7;
        *walk ^= *walk << 17;
        let slot = &mut table[*walk as usize % table.len()];
        sum = sum.wrapping_add(*slot);
        *slot = sum;
    }
    let mut map = BTreeMap::new();
    for i in 0..1_024u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i.to_string());
    }
    // Above the allocator's mmap threshold, so the pages are new.
    let fresh = vec![1u8; 512 << 10];
    std::hint::black_box((sum, map.len(), fresh.as_ptr()));
    thread_cpu() - start
}

/// Thread CPU time of a stretch of work, and that time at the reference
/// host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    pub cpu: Duration,
    pub at_reference: Duration,
}

impl Add for Timed {
    type Output = Timed;

    fn add(self, other: Timed) -> Timed {
        Timed {
            cpu: self.cpu + other.cpu,
            at_reference: self.at_reference + other.at_reference,
        }
    }
}

/// `cpu` at the reference host speed, given the probe times sampled
/// while it ran.
fn at_reference(cpu: Duration, probes: &[Duration]) -> Duration {
    let mean = probes.iter().sum::<Duration>().as_secs_f64() / probes.len() as f64;
    cpu.mul_f64(PROBE_REFERENCE.as_secs_f64() / mean)
}

/// Where a stretch of work timed by a [`SpeedSampler`] started.
pub struct Stretch {
    wall: Instant,
    cpu: Duration,
}

/// A CPU affinity mask, laid out as `cpu_set_t`.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(mask: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `mask` is a valid cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// Samples how fast the host runs the calling thread's CPU, while the
/// sampler lives. On a shared host the core's speed moves by up to half,
/// in spells from a fraction of a second to minutes; the slow ones
/// outlast any repeat within a run. The sampler pins the calling thread
/// to the CPU it is on and starts a helper thread on the same CPU that
/// runs [`probe`] every [`SAMPLE_EVERY`]. The probes slow down with the
/// work, so a stretch's CPU time scaled by the probes taken while it ran
/// does not. The helper's CPU time is its own, not the stretch's; it is
/// stopped and joined, and the affinity restored, on drop.
pub struct SpeedSampler {
    samples: Arc<Mutex<Vec<(Instant, Duration)>>>,
    stop: Arc<AtomicBool>,
    helper: Option<JoinHandle<()>>,
    affinity: CpuSet,
}

impl SpeedSampler {
    pub fn start() -> std::io::Result<SpeedSampler> {
        let mut affinity = CpuSet([0; 16]);
        // SAFETY: as in `set_affinity`, with a writable mask.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut affinity) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: no arguments; returns -1 on failure.
        let cpu = usize::try_from(unsafe { sched_getcpu() })
            .map_err(|_| std::io::Error::last_os_error())?;
        let mut pinned = CpuSet([0; 16]);
        pinned.0[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&pinned)?;
        // From here on, dropping the sampler restores the affinity.
        let mut sampler = SpeedSampler {
            samples: Arc::new(Mutex::new(Vec::new())),
            stop: Arc::new(AtomicBool::new(false)),
            helper: None,
            affinity,
        };
        // Spawned while the calling thread is pinned, the helper
        // inherits the same single CPU.
        let helper = {
            let samples = Arc::clone(&sampler.samples);
            let stop = Arc::clone(&sampler.stop);
            std::thread::Builder::new()
                .name("speed-sampler".to_owned())
                .spawn(move || {
                    let mut table: Vec<u64> = (0..PROBE_WORDS as u64).collect();
                    let mut walk = 0x2545_F491_4F6C_DD1D;
                    while !stop.load(Ordering::Acquire) {
                        let taken = probe(&mut table, &mut walk);
                        samples
                            .lock()
                            .expect("sampler poisoned")
                            .push((Instant::now(), taken));
                        std::thread::park_timeout(SAMPLE_EVERY);
                    }
                })
        };
        sampler.helper = Some(helper?);
        Ok(sampler)
    }

    pub fn begin(&self) -> Stretch {
        Stretch {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// The stretch's CPU time, and that time scaled by the probes that
    /// ended while it ran, or by the last one before its end when none
    /// did. Before the first probe has ended the time stays unscaled; an
    /// audit phase never ends that early.
    pub fn end(&self, stretch: Stretch) -> Timed {
        let cpu = thread_cpu() - stretch.cpu;
        let samples = self.samples.lock().expect("sampler poisoned");
        let mut during: Vec<Duration> = samples
            .iter()
            .filter(|(at, _)| *at >= stretch.wall)
            .map(|&(_, taken)| taken)
            .collect();
        if during.is_empty() {
            during.extend(samples.last().map(|&(_, taken)| taken));
        }
        Timed {
            cpu,
            at_reference: if during.is_empty() {
                cpu
            } else {
                at_reference(cpu, &during)
            },
        }
    }

    /// How many probes ran and their median thread CPU time.
    pub fn summary(&self) -> (usize, Duration) {
        let samples = self.samples.lock().expect("sampler poisoned");
        let mut taken: Vec<Duration> = samples.iter().map(|&(_, taken)| taken).collect();
        taken.sort_unstable();
        (
            taken.len(),
            taken.get(taken.len() / 2).copied().unwrap_or_default(),
        )
    }
}

impl Drop for SpeedSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(helper) = self.helper.take() {
            helper.thread().unpark();
            let _ = helper.join();
        }
        let _ = set_affinity(&self.affinity);
    }
}

/// Measures the share of the machine's CPU time stolen between
/// [`StealMeter::start`] and [`StealMeter::share`], from the first line
/// of `/proc/stat`; 0 where the file cannot be read.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(steal_ticks().ok())
    }

    pub fn share(&self) -> f64 {
        match (self.0, steal_ticks()) {
            (Some((steal0, total0)), Ok((steal1, total1))) if total1 > total0 => {
                steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        }
    }
}

/// The less stolen half of `units` (rounded up, at least one when there
/// are any), in their original order. A unit the hypervisor took CPU
/// away from runs late by an amount that says nothing about the program,
/// so latencies and wall-time rates are taken from these.
pub fn least_stolen<T>(units: &[T], steal_share: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| steal_share(&units[a]).total_cmp(&steal_share(&units[b])));
    order.truncate(units.len().div_ceil(2));
    order.sort_unstable();
    order.into_iter().map(|i| &units[i]).collect()
}

/// Machine-wide `(steal, total)` CPU ticks.
fn steal_ticks() -> std::io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .map_while(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    match ticks[..] {
        [.., steal] if ticks.len() == 8 => Ok((steal, ticks.iter().sum())),
        _ => Err(std::io::Error::other("malformed /proc/stat")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_with_work_but_not_with_sleep() {
        let before = thread_cpu();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu() - before;
        assert!(slept < Duration::from_millis(10), "slept {slept:?}");
        // Spin until the clock shows 20 ms of work; a stolen CPU only
        // makes that take longer.
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while thread_cpu() - before < Duration::from_millis(30) {
            assert!(spin.elapsed() < Duration::from_secs(10), "CPU clock stuck");
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }

    #[test]
    fn reference_time_scales_with_the_probes() {
        let cpu = Duration::from_millis(300);
        assert_eq!(at_reference(cpu, &[PROBE_REFERENCE; 3]), cpu);
        // A host that runs the probes at half speed ran the work at half
        // speed too.
        let slow = PROBE_REFERENCE * 2;
        assert_eq!(at_reference(cpu, &[slow, slow]), cpu / 2);
        assert_eq!(
            at_reference(cpu, &[PROBE_REFERENCE, PROBE_REFERENCE * 3]),
            cpu / 2
        );
    }

    #[test]
    fn sampler_times_stretches_and_restores_the_affinity() {
        let before = current_affinity();
        let sampler = SpeedSampler::start().expect("sampler starts");
        let stretch = sampler.begin();
        let start = thread_cpu();
        while thread_cpu() - start < Duration::from_millis(120) {
            std::hint::black_box(start);
        }
        let timed = sampler.end(stretch);
        assert!(timed.cpu >= Duration::from_millis(120), "{timed:?}");
        assert!(timed.at_reference > Duration::ZERO, "{timed:?}");
        let (probes, median) = sampler.summary();
        assert!(
            probes >= 1 && median > Duration::ZERO,
            "{probes} {median:?}"
        );
        drop(sampler);
        assert_eq!(current_affinity(), before);
    }

    fn current_affinity() -> [u64; 16] {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: a writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        assert_eq!(rc, 0);
        mask.0
    }

    #[test]
    fn least_stolen_keeps_the_cleaner_half_in_order() {
        let steal = [0.30, 0.01, 0.02, 0.50, 0.00];
        let kept: Vec<f64> = least_stolen(&steal, |s| *s).into_iter().copied().collect();
        assert_eq!(kept, [0.01, 0.02, 0.00]);
        assert_eq!(least_stolen(&[0.4], |s| *s).len(), 1);
        assert!(least_stolen(&[] as &[f64], |s| *s).is_empty());
    }

    #[test]
    fn steal_share_is_a_share() {
        let meter = StealMeter::start();
        std::thread::sleep(Duration::from_millis(30));
        let share = meter.share();
        assert!((0.0..=1.0).contains(&share), "{share}");
    }
}
