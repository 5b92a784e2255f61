//! The serving layer: open-loop Poisson arrivals into one in-process
//! `ServeEngine` at N=2^14 and fixed absolute rates, each request timed
//! from the moment it was due to be sent. It runs in the traced run of
//! `tcp-resilient`, the workload of the fault-tolerant bodies, because the
//! engine runs the cancellable one.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use soifft_core::SoiParams;
use soifft_num::c64;
use soifft_serve::{JobError, JobTicket, Rejected, ServeConfig, ServeEngine};

use crate::input::{self, energies, snr_db, Rng};
use crate::metrics::Values;
use crate::soi::{self, SNR_FLOOR_DB};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};

/// Transform size served.
const N: usize = 1 << 14;
/// The latency limit on p99, and every request's deadline.
const LIMIT: Duration = Duration::from_millis(50);
/// Fixed absolute arrival rates (requests/s). Absolute, not calibrated:
/// measured capacity on the reference box varied 252–650 jobs/s between
/// runs, and a calibrated rate would move with it.
const LO: f64 = 100.0;
const HI: f64 = 200.0;
const OVERLOAD: f64 = 800.0;
/// Rates tried in order for the highest rate that meets the limit.
const LADDER: [f64; 10] = [
    100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 1000.0,
];
/// Rounds of the `lo`, `hi` and `overload` phases, so that each phase
/// samples the whole measurement rather than one stretch of it.
const ROUNDS: usize = 5;
/// Shares of `--seconds` per phase and round, and per ladder rung.
const LO_SHARE: f64 = 0.02;
const HI_SHARE: f64 = 0.04;
const OVERLOAD_SHARE: f64 = 0.02;
const RUNG_SHARE: f64 = 0.02;
/// Distinct inputs cycled through the requests.
const INPUTS: usize = 4;
/// Closed-loop requests per round for the unloaded service time.
const SERVICE_REQUESTS: usize = 10;
/// Engine start-ups; `engine_start_s` is their median and the last
/// engine serves.
const STARTS: usize = 3;

/// Arrival times (seconds from the phase start) of a Poisson process of
/// `rate` per second over `seconds`.
fn poisson(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let mut at = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return at;
        }
        at.push(t);
    }
}

/// One request's life, in seconds from the phase start.
#[derive(Clone, Copy, Debug)]
struct Request {
    scheduled: f64,
    /// When `submit` was called; later than `scheduled` when the
    /// generator ran late.
    sent: f64,
    submit_s: f64,
    /// When the result was back (or the refusal, for a refused request).
    done: f64,
    status: Status,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Good,
    Refused,
    Shed,
    /// The engine failed the job for a reason other than its deadline.
    Error,
    Wrong,
}

impl Request {
    /// Latency as its user sees it: from when it was due, so a stalled
    /// generator charges its stall to every request it delayed.
    fn latency(&self) -> f64 {
        self.done - self.scheduled
    }

    fn lag(&self) -> f64 {
        self.sent - self.scheduled
    }

    fn in_time(&self) -> bool {
        self.status == Status::Good && self.latency() <= LIMIT.as_secs_f64()
    }
}

struct Served {
    inputs: Vec<Vec<c64>>,
    wants: Vec<Vec<c64>>,
}

/// Sends the schedule open-loop from one submitter thread while one
/// collector thread waits for each ticket in order and checks its output.
fn phase(
    engine: &ServeEngine,
    served: &Served,
    schedule: &[f64],
    tracer: &mut Tracer,
    min_snr: &mut f64,
) -> Vec<Request> {
    type Sent = (usize, f64, f64, Instant, Result<JobTicket, Rejected>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now() + Duration::from_millis(2);
    let since = move |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, &at) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let result = engine.submit(0, &served.inputs[i % INPUTS], Some(LIMIT));
                let submit_s = sent.elapsed().as_secs_f64();
                tx.send((i, at, submit_s, sent, result))
                    .expect("collector outlives the submitter");
            }
        });
        let mut out = Vec::with_capacity(schedule.len());
        let mut y = Vec::with_capacity(N);
        for (i, scheduled, submit_s, sent, result) in rx {
            let status = match result {
                Err(_) => Status::Refused,
                Ok(ticket) => match ticket.wait_into(&mut y) {
                    Err(JobError::DeadlineExpired { .. }) => Status::Shed,
                    Err(_) => Status::Error,
                    Ok(()) => {
                        let (sig, err) = energies(&y, &served.wants[i % INPUTS]);
                        let snr = snr_db(sig, err);
                        *min_snr = min_snr.min(snr);
                        if snr >= SNR_FLOOR_DB {
                            Status::Good
                        } else {
                            Status::Wrong
                        }
                    }
                },
            };
            let done = Instant::now();
            tracer.record("request", i as u64, sent, done);
            out.push(Request {
                scheduled,
                sent: since(sent),
                submit_s,
                done: since(done),
                status,
            });
        }
        out
    })
}

fn latencies_ms(requests: &[Request]) -> Vec<f64> {
    requests
        .iter()
        .filter(|r| r.status == Status::Good)
        .map(|r| r.latency() * 1e3)
        .collect()
}

/// Starts an engine for the untuned plan, timing `ServeEngine::start`,
/// and waits for its first served transform.
fn start(params: SoiParams, served: &Served) -> Result<(ServeEngine, f64), String> {
    let t = Instant::now();
    let engine = ServeEngine::start(params, ServeConfig::default()).map_err(|e| e.to_string())?;
    let start_s = t.elapsed().as_secs_f64();
    engine
        .submit(0, &served.inputs[0], None)
        .map_err(|e| format!("idle engine refused: {e:?}"))?
        .wait()
        .map_err(|e| format!("first request failed: {e:?}"))?;
    Ok((engine, start_s))
}

/// What the serving run attempted and how much of it failed.
pub struct Tally {
    pub attempted: u64,
    /// Errors and wrong outputs.
    pub failed: u64,
    /// Requests refused or shed at the `lo` and `hi` rates.
    pub turned_away: u64,
}

/// Runs the serving schedule, writes the serving layer's metrics into
/// `values` and one span per request (submit to `wait` return) into
/// `spans`.
pub fn layers(
    seed: u64,
    seconds: f64,
    origin: Instant,
    spans: &mut Vec<Span>,
    values: &mut Values,
) -> Result<Tally, String> {
    soi::assert_untuned(N);
    let inputs: Vec<Vec<c64>> = (0..INPUTS as u64)
        .map(|k| input::signal(N, seed.wrapping_mul(INPUTS as u64).wrapping_add(k)))
        .collect();
    let wants = inputs.iter().map(|x| input::reference(x)).collect();
    let served = Served { inputs, wants };
    let params = soi::params(N);

    let mut starts = Vec::with_capacity(STARTS);
    let mut engine = None;
    for _ in 0..STARTS {
        if let Some(e) = engine.take() {
            ServeEngine::shutdown(e);
        }
        let (e, start_s) = start(params, &served)?;
        starts.push(start_s);
        engine = Some(e);
    }
    let engine = engine.expect("at least one start");
    values.set("engine_start_s", median(&starts));

    let mut rng = Rng::new(seed ^ 0x0A11_CE5E_ED00_0001);
    let mut tracer = Tracer::new(origin, 0, 1 << 40);
    let mut min_snr = f64::INFINITY;
    let mut run_phase = |rate: f64, share: f64, min_snr: &mut f64| {
        let schedule = poisson(rate, share * seconds, &mut rng);
        phase(&engine, &served, &schedule, &mut tracer, min_snr)
    };
    let (mut lo, mut hi, mut overload) = (Vec::new(), Vec::new(), Vec::new());
    let mut service_ms = Vec::new();
    for _ in 0..ROUNDS {
        for i in 0..SERVICE_REQUESTS {
            let t = Instant::now();
            let y = engine
                .submit(0, &served.inputs[i % INPUTS], None)
                .map_err(|e| format!("idle engine refused: {e:?}"))?
                .wait()
                .map_err(|e| format!("unloaded request failed: {e:?}"))?;
            service_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let (sig, err) = energies(&y, &served.wants[i % INPUTS]);
            min_snr = min_snr.min(snr_db(sig, err));
        }
        lo.extend(run_phase(LO, LO_SHARE, &mut min_snr));
        hi.extend(run_phase(HI, HI_SHARE, &mut min_snr));
        overload.extend(run_phase(OVERLOAD, OVERLOAD_SHARE, &mut min_snr));
    }
    let mut ladder = Vec::new();
    let mut slo_rate = 0.0;
    for rate in LADDER {
        let rung = run_phase(rate, RUNG_SHARE, &mut min_snr);
        let lat = latencies_ms(&rung);
        let met = rung.iter().all(|r| r.status == Status::Good)
            && percentile(&lat, 0.99) <= LIMIT.as_secs_f64() * 1e3;
        ladder.extend(rung);
        if !met {
            break;
        }
        slo_rate = rate;
    }
    let report = engine.shutdown();

    // Errors and wrong outputs are failures anywhere. Refused and shed
    // requests at the `lo` and `hi` rates missed the latency limit and
    // count in `failed_frac`; past capacity (overload, ladder) they are
    // the engine working as designed and show in `shed`, `rejected` and
    // `useful_frac` instead.
    let steady: Vec<&Request> = lo.iter().chain(&hi).collect();
    let failed = steady
        .iter()
        .copied()
        .chain(&overload)
        .chain(&ladder)
        .filter(|r| matches!(r.status, Status::Error | Status::Wrong))
        .count() as u64;
    let turned_away = steady
        .iter()
        .filter(|r| matches!(r.status, Status::Refused | Status::Shed))
        .count() as u64;
    let failed = failed + u64::from(min_snr < SNR_FLOOR_DB);

    let (lo_ms, hi_ms) = (latencies_ms(&lo), latencies_ms(&hi));
    values.set("serve_lo_p50_ms", percentile(&lo_ms, 0.5));
    values.set("serve_lo_p99_ms", percentile(&lo_ms, 0.99));
    values.set("serve_hi_p50_ms", percentile(&hi_ms, 0.5));
    values.set("serve_hi_p99_ms", percentile(&hi_ms, 0.99));
    let in_time = overload.iter().filter(|r| r.in_time()).count() as f64;
    let overload_s = ROUNDS as f64 * OVERLOAD_SHARE * seconds;
    values.set("overload_goodput_per_s", in_time / overload_s);
    values.set("useful_frac", in_time / overload.len().max(1) as f64);
    values.set("slo_rate_per_s", slo_rate);
    values.set("service_ms", median(&service_ms));
    let lags: Vec<f64> = steady.iter().map(|r| r.lag() * 1e3).collect();
    values.set("generator_lag_ms", percentile(&lags, 0.99));
    let submits: Vec<f64> = steady.iter().map(|r| r.submit_s * 1e6).collect();
    values.set("submit_us", median(&submits));
    let stats = report.stats;
    let queue_wait: f64 = report
        .rank_stats
        .iter()
        .flatten()
        .map(|s| s.queue_wait_seconds())
        .sum();
    let dequeued = stats.completed + stats.shed_inflight + stats.failed;
    values.set("queue_wait_ms", queue_wait / dequeued.max(1) as f64 * 1e3);
    values.set("rejected", stats.rejected as f64);
    values.set("shed", (stats.shed_queue + stats.shed_inflight) as f64);
    values.set("retries", stats.retries as f64);
    println!(
        "{{\"serve_samples\": {{\"lo\": {}, \"hi\": {}, \"turned_away\": {turned_away}, \"overload\": {}, \"ladder\": {}, \"service\": {}}}}}",
        lo.len(),
        hi.len(),
        overload.len(),
        ladder.len(),
        service_ms.len(),
    );
    spans.extend(tracer.into_spans());
    Ok(Tally {
        attempted: (steady.len() + overload.len() + ladder.len() + service_ms.len()) as u64,
        failed,
        turned_away,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson(200.0, 50.0, &mut Rng::new(3));
        let b = poisson(200.0, 50.0, &mut Rng::new(3));
        assert_eq!(a, b);
        let rate = a.len() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..50.0).contains(&t)));
    }

    #[test]
    fn latency_counts_from_the_scheduled_send() {
        // The generator stalled 30 ms before sending; the request then
        // took 5 ms. Its user waited 35 ms.
        let r = Request {
            scheduled: 1.000,
            sent: 1.030,
            submit_s: 0.0,
            done: 1.035,
            status: Status::Good,
        };
        assert!((r.lag() - 0.030).abs() < 1e-12);
        assert!((r.latency() - 0.035).abs() < 1e-12);
        assert!(r.in_time());
        let late = Request { done: 1.060, ..r };
        assert!(!late.in_time());
        let shed = Request {
            status: Status::Shed,
            ..r
        };
        assert!(!shed.in_time());
    }
}
