//! The `bulk-inproc` and `tcp-resilient` workloads: closed-loop SOI and
//! CT timings, and the traced layer-by-layer replay of one SOI transform.

use std::sync::Arc;
use std::time::Instant;

use soifft_cluster::{Comm, ExchangePolicy};
use soifft_core::conv::{convolve_fused_fft_with_scratch, convolve_with_scratch, ConvScratch};
use soifft_core::{wisdom, Precision, SoiFft, SoiParams, Window, WindowKind, WisdomKey};
use soifft_ct::DistributedCtFft;
use soifft_fft::{batch, Plan, SixStepFft, SixStepScratch, SixStepVariant};
use soifft_num::c64;
use soifft_par::Pool;

use crate::input::{self, energies, snr_db};
use crate::mesh::{self, allgather, Transport};
use crate::metrics::{Outcome, Values};
use crate::roofline::Roofline;
use crate::stats::{median, percentile};
use crate::trace::{self, Span, Tracer};

/// Ranks per run: one per core of the two-core box the benchmark was
/// built on; the run records the core count it actually had.
pub const RANKS: usize = 2;
/// Output SNR below this (dB, against the single-node `Plan`) is a wrong
/// answer. It matches the library's `rel_l2 < 1e-9` accuracy gate.
pub const SNR_FLOOR_DB: f64 = 180.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm transforms per rank over which the exact counts are taken.
const COUNT_REPS: usize = 2;

/// What a workload runs: transform size, transport, and whether the
/// fault-tolerant (`try_*`) bodies run instead of the plain ones.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub transport: Transport,
    pub resilient: bool,
}

/// The shape an untuned caller gets from `SoiParams::suggest`.
pub fn params(n: usize) -> SoiParams {
    SoiParams::suggest(n, RANKS).expect("suggest finds a shape for 2^k points")
}

/// Fails unless the wisdom registry is empty, so no tuned plan can leak
/// into a run.
pub fn assert_untuned(n: usize) {
    let key = WisdomKey {
        n,
        procs: RANKS,
        precision: Precision::F64,
    };
    assert!(
        wisdom::len() == 0 && wisdom::lookup(&key).is_none(),
        "wisdom registry is not empty"
    );
}

/// One line describing the plan and machine a run measured.
fn provenance(workload: &str, shape: Shape, fft: &SoiFft) -> String {
    let p = fft.params();
    format!(
        "{{\"workload\": \"{workload}\", \"cores\": {}, \"ranks\": {RANKS}, \"n\": {}, \"transport\": \"{}\", \
         \"segments_per_rank\": {}, \"mu\": \"{}/{}\", \"conv_width\": {}, \"strategy\": \"{}\", \
         \"exchange\": \"{:?}\", \"fused\": {}, \"precision\": \"{:?}\", \"kernel_backend\": \"{}\"}}",
        cores(),
        p.n,
        shape.transport.label(),
        p.segments_per_proc,
        p.mu.num(),
        p.mu.den(),
        p.conv_width,
        fft.strategy().label(),
        fft.exchange(),
        fft.fused_segment_fft(),
        fft.precision(),
        soifft_num::simd::kernel_backend(),
    )
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one SOI transform through the workload's body.
fn soi_call(
    fft: &SoiFft,
    comm: &mut Comm,
    local: &[c64],
    shape: Shape,
    ws: &mut soifft_core::SoiWorkspace,
    y: &mut [c64],
) -> bool {
    if shape.resilient {
        fft.try_forward_into(comm, local, &ExchangePolicy::default(), ws, y)
            .is_ok()
    } else {
        fft.forward_into(comm, local, ws, y);
        true
    }
}

/// Runs one CT baseline transform through the workload's body.
fn ct_call(
    ct: &DistributedCtFft,
    comm: &mut Comm,
    local: &[c64],
    shape: Shape,
    ws: &mut soifft_ct::CtWorkspace,
    y: &mut [c64],
) -> bool {
    if shape.resilient {
        match ct.try_forward(comm, local, &ExchangePolicy::default()) {
            Ok(out) => {
                y.copy_from_slice(&out);
                true
            }
            Err(_) => false,
        }
    } else {
        ct.forward_into(comm, local, ws, y);
        true
    }
}

/// Wall time from launching a mesh until every rank has passed its first
/// barrier (0 for the in-process cluster, which has no mesh).
fn mesh_seconds(transport: Transport) -> Result<f64, String> {
    if transport == Transport::InProc {
        return Ok(0.0);
    }
    let t = Instant::now();
    let times = mesh::run(transport, RANKS, |comm| {
        comm.barrier();
        t.elapsed().as_secs_f64()
    })?;
    Ok(times.into_iter().fold(0.0, f64::max))
}

/// Plan, one workspace per rank, and mesh bring-up; returns the plan and
/// the wall time of the whole set-up.
fn setup_once(params: SoiParams, transport: Transport) -> Result<(SoiFft, f64), String> {
    let t = Instant::now();
    let fft = SoiFft::new(params).expect("suggested parameters validate");
    let workspaces: Vec<_> = (0..RANKS).map(|_| fft.make_workspace()).collect();
    let local = t.elapsed().as_secs_f64();
    drop(workspaces);
    Ok((fft, local + mesh_seconds(transport)?))
}

/// Closed-loop timings of SOI and the CT baseline on the same input.
#[derive(Default)]
struct Timings {
    soi_s: Vec<f64>,
    ct_s: Vec<f64>,
    soi_snr_db: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Alternates one SOI and one CT transform of `x` for `seconds` after a
/// warm-up pair, timing each from a barrier to the slowest rank's return
/// and checking each output against `want`.
fn closed_loop(
    shape: Shape,
    fft: &SoiFft,
    x: &[c64],
    want: &[c64],
    seconds: f64,
) -> Result<Timings, String> {
    let ct = DistributedCtFft::new(shape.n, RANKS).expect("power-of-two N splits over 2 ranks");
    let per = shape.n / RANKS;
    let per_rank = mesh::run(shape.transport, RANKS, |comm| {
        let r = comm.rank();
        let (local, want) = (&x[r * per..(r + 1) * per], &want[r * per..(r + 1) * per]);
        let mut ws = fft.make_workspace();
        let mut cws = ct.make_workspace();
        let mut y = vec![c64::ZERO; per];
        let mut out = Timings::default();
        let mut start = Instant::now();
        for round in 0.. {
            comm.stats_mut().clear_records();
            comm.barrier();
            let t = Instant::now();
            let soi_ok = soi_call(fft, comm, local, shape, &mut ws, &mut y);
            let soi_s = t.elapsed().as_secs_f64();
            let (soi_sig, soi_err) = energies(&y, want);
            comm.barrier();
            let t = Instant::now();
            let ct_ok = ct_call(&ct, comm, local, shape, &mut cws, &mut y);
            let ct_s = t.elapsed().as_secs_f64();
            let (ct_sig, ct_err) = energies(&y, want);
            let row = [
                soi_s,
                ct_s,
                soi_sig,
                soi_err,
                ct_sig,
                ct_err,
                f64::from(u8::from(soi_ok && ct_ok)),
                start.elapsed().as_secs_f64(),
            ];
            let rows = allgather(comm, &row);
            let col = |i: usize| rows.iter().map(move |r| r[i]);
            let sum = |i: usize| col(i).sum::<f64>();
            let soi_snr = snr_db(sum(2), sum(3));
            let ct_snr = snr_db(sum(4), sum(5));
            let ran = col(6).all(|ok| ok == 1.0);
            if round == 0 {
                start = Instant::now();
                continue;
            }
            out.attempted += 2;
            out.failed += u64::from(!ran || soi_snr < SNR_FLOOR_DB)
                + u64::from(!ran || ct_snr < SNR_FLOOR_DB);
            out.soi_s.push(col(0).fold(0.0, f64::max));
            out.ct_s.push(col(1).fold(0.0, f64::max));
            out.soi_snr_db.push(soi_snr);
            if !ran || rows[0][7] >= seconds {
                break;
            }
        }
        out
    })?;
    Ok(per_rank.into_iter().next().expect("rank 0"))
}

/// The untraced run: end-to-end metrics only.
pub fn run(workload: &str, shape: Shape, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let params = params(shape.n);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fft = None;
    for _ in 0..SETUP_REPS {
        let (planned, s) = setup_once(params, shape.transport)?;
        setups.push(s);
        fft = Some(planned);
    }
    let fft = fft.expect("at least one set-up");
    println!("{}", provenance(workload, shape, &fft));
    let x = input::signal(shape.n, seed);
    let want = input::reference(&x);
    let t = closed_loop(shape, &fft, &x, &want, seconds)?;
    println!(
        "{{\"samples\": {{\"soi\": {}, \"ct\": {}}}}}",
        t.soi_s.len(),
        t.ct_s.len()
    );
    let mut values = Values::default();
    values.set("soi_p50_s", median(&t.soi_s));
    values.set("soi_p90_s", percentile(&t.soi_s, 0.9));
    values.set("ct_p50_s", median(&t.ct_s));
    values.set(
        "snr_db",
        t.soi_snr_db.iter().copied().fold(f64::INFINITY, f64::min),
    );
    values.set("setup_s", median(&setups));
    Ok(Outcome {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        values,
    })
}

/// The buffers and sub-plans one rank's replay runs on, shaped exactly
/// as the plan's own (`SoiFft::make_workspace` keeps its buffers private).
struct ReplayBufs {
    plan_l: Arc<Plan>,
    pool: Pool,
    conv: ConvScratch,
    workers: Vec<Vec<c64>>,
    segment_fft: SixStepFft,
    seg_scratch: SixStepScratch,
    demod: Vec<c64>,
    input_ext: Vec<c64>,
    u: Vec<c64>,
    outgoing: Vec<Vec<c64>>,
    incoming: Vec<Vec<c64>>,
    z: Vec<c64>,
    aux: Vec<c64>,
    y: Vec<c64>,
}

impl ReplayBufs {
    /// Sub-plans as `SoiFft::new` builds them: `F_L` from the shared plan
    /// cache, a fused-dynamic six-step `F_{M'}`, the window's
    /// demodulation diagonal zero-padded to `M'`, and the serial pool an
    /// untuned plan runs on.
    fn new(fft: &SoiFft) -> Self {
        let p = fft.params();
        let (l, m, m_prime) = (p.total_segments(), p.m(), p.m_prime());
        let plan_l = soifft_fft::shared_plan(l);
        let pool = Pool::serial();
        let segment_fft = SixStepFft::new(m_prime, SixStepVariant::FusedDynamic);
        let mut demod = vec![c64::ZERO; m_prime];
        demod[..m].copy_from_slice(&fft.window().demod()[..m]);
        ReplayBufs {
            conv: ConvScratch::new(p, &plan_l, &pool),
            workers: batch::make_worker_scratch(&plan_l, &pool),
            seg_scratch: segment_fft.make_scratch(),
            segment_fft,
            plan_l,
            pool,
            demod,
            input_ext: Vec::with_capacity(p.per_rank() + p.ghost_len()),
            u: vec![c64::ZERO; p.blocks_per_rank() * l],
            outgoing: vec![Vec::new(); p.procs],
            incoming: Vec::new(),
            z: Vec::with_capacity(m_prime),
            aux: vec![c64::ZERO; m_prime],
            y: vec![c64::ZERO; p.per_rank()],
        }
    }
}

/// Replays one transform on this rank, one public call per layer, each in
/// its own span under a `transform` root. Copies and the pack stay in the
/// root's self time. Returns the all-to-all's `(bytes, messages)` sent.
fn replay(
    fft: &SoiFft,
    comm: &mut Comm,
    local: &[c64],
    resilient: bool,
    b: &mut ReplayBufs,
    t: &mut Tracer,
    id: u64,
) -> (u64, u64) {
    let p = *fft.params();
    let (l, blocks, m) = (p.total_segments(), p.blocks_per_rank(), p.m());
    let policy = ExchangePolicy::default();
    comm.barrier();
    t.open("transform", id);
    let ghost = t.span("ghost", id, || {
        if resilient {
            comm.try_exchange_ghost(local, p.ghost_len(), &policy)
                .expect("ghost exchange")
        } else {
            comm.exchange_ghost(local, p.ghost_len())
        }
    });
    b.input_ext.clear();
    b.input_ext.extend_from_slice(local);
    b.input_ext.extend_from_slice(&ghost);
    let window: &Window = fft.window();
    if fft.fused_segment_fft() {
        t.span("conv", id, || {
            convolve_fused_fft_with_scratch(
                &p,
                window,
                &b.input_ext,
                &mut b.u,
                &b.plan_l,
                &b.pool,
                &mut b.conv,
            )
        });
    } else {
        t.span("conv", id, || {
            convolve_with_scratch(
                &p,
                window,
                fft.strategy(),
                &b.input_ext,
                &mut b.u,
                &b.pool,
                &mut b.conv,
            )
        });
        t.span("block_dft", id, || {
            batch::forward_rows_parallel_with(&b.plan_l, &b.pool, &mut b.u, &mut b.workers)
        });
    }
    // Pack: destination q receives, for each of its segments s, v_m[s]
    // of every local block.
    let segs = p.segments_per_proc;
    for (q, slot) in b.outgoing.iter_mut().enumerate() {
        slot.clear();
        for s in q * segs..(q + 1) * segs {
            slot.extend(b.u.chunks_exact(l).map(|block| block[s]));
        }
    }
    t.span("barrier", id, || comm.barrier());
    let (bytes0, msgs0) = (
        comm.stats().total_bytes_sent(),
        comm.stats().messages_sent(),
    );
    t.span("a2a", id, || {
        if resilient {
            b.incoming = comm
                .all_to_all_resilient(&b.outgoing, &policy)
                .expect("all-to-all");
        } else {
            comm.all_to_all_into(&mut b.outgoing, &mut b.incoming);
        }
    });
    let sent = (
        comm.stats().total_bytes_sent() - bytes0,
        comm.stats().messages_sent() - msgs0,
    );
    for sl in 0..segs {
        b.z.clear();
        for part in &b.incoming {
            b.z.extend_from_slice(&part[sl * blocks..(sl + 1) * blocks]);
        }
        t.span("recovery_fft", id, || {
            b.segment_fft
                .forward_scaled_with(&mut b.z, &mut b.aux, &b.demod, &mut b.seg_scratch)
        });
        b.y[sl * m..(sl + 1) * m].copy_from_slice(&b.z[..m]);
    }
    t.close();
    sent
}

/// One rank's traced-run measurements.
struct RankTrace {
    spans: Vec<Span>,
    forward_s: Vec<f64>,
    heap: (u64, u64),
    comm_allocs: u64,
    retransmits: u64,
    a2a: (u64, u64),
    bit_identical: bool,
    ct_exchange_s: f64,
    snr: (f64, f64),
    ran: bool,
}

/// The traced run's layer measurements for `shape`, written into
/// `values`; the spans go to `spans`. Returns whether the forward
/// transforms it ran were correct.
#[allow(clippy::too_many_arguments)]
fn layers(
    shape: Shape,
    fft: &SoiFft,
    x: &[c64],
    want: &[c64],
    roof: &Roofline,
    origin: Instant,
    values: &mut Values,
    spans: &mut Vec<Span>,
) -> Result<bool, String> {
    let p = *fft.params();
    let per = p.per_rank();
    let ct = DistributedCtFft::new(shape.n, RANKS).expect("power-of-two N splits over 2 ranks");
    let (n1, n2) = ct.split();
    let ranks = mesh::run(shape.transport, RANKS, |comm| {
        let r = comm.rank();
        let (local, want) = (&x[r * per..(r + 1) * per], &want[r * per..(r + 1) * per]);
        let mut ws = fft.make_workspace();
        let mut y = vec![c64::ZERO; per];
        let mut ran = true;
        for _ in 0..2 {
            ran &= soi_call(fft, comm, local, shape, &mut ws, &mut y);
        }

        // Exact counts over warm transforms. Only rank threads count, and
        // both ranks count inside the same pair of barriers, so rank 0's
        // reading of the process totals covers the whole cluster.
        let heap0 = crate::alloc::totals();
        let (allocs0, retx0) = (comm.stats().comm_allocs(), comm.stats().retransmits());
        comm.barrier();
        crate::alloc::counting(|| {
            for _ in 0..COUNT_REPS {
                comm.stats_mut().clear_records();
                ran &= soi_call(fft, comm, local, shape, &mut ws, &mut y);
            }
        });
        comm.barrier();
        let heap1 = crate::alloc::totals();
        let comm_allocs = comm.stats().comm_allocs() - allocs0;
        let retransmits = comm.stats().retransmits() - retx0;

        let mut forward_s = Vec::new();
        for _ in 0..3 {
            comm.stats_mut().clear_records();
            comm.barrier();
            let t = Instant::now();
            ran &= soi_call(fft, comm, local, shape, &mut ws, &mut y);
            forward_s.push(t.elapsed().as_secs_f64());
        }

        let mut bufs = ReplayBufs::new(fft);
        let mut warm = Tracer::new(origin, r, 0);
        replay(fft, comm, local, shape.resilient, &mut bufs, &mut warm, 0);
        let mut tracer = Tracer::new(origin, r, (r as u64 + 1) << 32);
        let a2a = replay(fft, comm, local, shape.resilient, &mut bufs, &mut tracer, 1);

        comm.barrier();
        let t = Instant::now();
        let transpose = |comm: &mut Comm, v: &[c64], rows, cols| {
            if shape.resilient {
                soifft_ct::distributed_transpose_resilient(
                    comm,
                    v,
                    rows,
                    cols,
                    &ExchangePolicy::default(),
                )
                .expect("transpose")
            } else {
                soifft_ct::distributed_transpose(comm, v, rows, cols)
            }
        };
        let v = transpose(comm, local, n1, n2);
        let v = transpose(comm, &v, n2, n1);
        std::hint::black_box(transpose(comm, &v, n1, n2));
        let ct_exchange_s = t.elapsed().as_secs_f64();

        RankTrace {
            spans: tracer.into_spans(),
            forward_s,
            heap: (heap1.0 - heap0.0, heap1.1 - heap0.1),
            comm_allocs,
            retransmits,
            a2a,
            bit_identical: input::bit_identical(&bufs.y, &y),
            ct_exchange_s,
            snr: energies(&y, want),
            ran,
        }
    })?;

    let mean = |f: &dyn Fn(&RankTrace) -> f64| ranks.iter().map(f).sum::<f64>() / RANKS as f64;
    let sum = |f: &dyn Fn(&RankTrace) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let layer = |name: &'static str| mean(&|rt| trace::total_self_seconds(&rt.spans, name));
    let forward_s: Vec<f64> = (0..3)
        .map(|i| ranks.iter().map(|rt| rt.forward_s[i]).fold(0.0, f64::max))
        .collect();
    let replay_s = mean(&|rt| {
        rt.spans
            .iter()
            .find(|s| s.name == "transform")
            .map_or(0.0, Span::seconds)
    });

    let conv_s = layer("conv");
    let conv_flops = p.conv_flops();
    let conv_bytes = 16.0
        * RANKS as f64
        * (per + p.ghost_len() + p.blocks_per_rank() * p.total_segments()) as f64;
    let conv_bound = roof
        .axpy_peak_gflops
        .min(roof.triad_gbps * conv_flops / conv_bytes);
    values.set("conv_s", conv_s);
    values.set("conv_gflops", conv_flops / conv_s * 1e-9);
    values.set("conv_gbps", conv_bytes / conv_s * 1e-9);
    values.set(
        "conv_roofline_frac",
        conv_flops / conv_s * 1e-9 / conv_bound,
    );
    values.set("block_dft_s", layer("block_dft"));
    let recovery_s = layer("recovery_fft");
    let recovery_flops = p.total_segments() as f64 * soifft_fft::fft_flops(p.m_prime());
    values.set("recovery_fft_s", recovery_s);
    values.set("recovery_fft_gflops", recovery_flops / recovery_s * 1e-9);
    values.set("ghost_s", layer("ghost"));
    let a2a_s = layer("a2a");
    let a2a_bytes = sum(&|rt| rt.a2a.0);
    values.set("a2a_s", a2a_s);
    values.set("a2a_bytes", a2a_bytes);
    values.set("a2a_messages", sum(&|rt| rt.a2a.1));
    values.set("a2a_gbps", a2a_bytes / a2a_s * 1e-9);
    values.set(
        "a2a_roofline_frac",
        a2a_bytes / a2a_s * 1e-9 / roof.copy_gbps,
    );
    values.set("barrier_wait_s", layer("barrier"));
    values.set("ct_exchange_s", mean(&|rt| rt.ct_exchange_s));
    values.set("retransmits", sum(&|rt| rt.retransmits));
    values.set("comm_allocs", sum(&|rt| rt.comm_allocs) / COUNT_REPS as f64);
    values.set(
        "heap_allocs_per_transform",
        ranks[0].heap.0 as f64 / COUNT_REPS as f64,
    );
    values.set(
        "heap_bytes_per_transform",
        ranks[0].heap.1 as f64 / COUNT_REPS as f64,
    );
    values.set("unattributed_s", layer("transform"));
    values.set("replay_frac", replay_s / median(&forward_s));
    values.set(
        "replay_bit_identical",
        f64::from(u8::from(ranks.iter().all(|rt| rt.bit_identical))),
    );

    let (sig, err) = ranks
        .iter()
        .fold((0.0, 0.0), |(s, e), rt| (s + rt.snr.0, e + rt.snr.1));
    let correct = ranks.iter().all(|rt| rt.ran) && snr_db(sig, err) >= SNR_FLOOR_DB;
    spans.extend(ranks.into_iter().flat_map(|rt| rt.spans));
    Ok(correct)
}

/// Set-up layers, each timed on its own: the window, the whole plan, one
/// workspace, and the mesh.
fn setup_layers(shape: Shape, params: SoiParams, values: &mut Values) -> Result<SoiFft, String> {
    let t = Instant::now();
    std::hint::black_box(Window::new(WindowKind::GaussianSinc, &params));
    values.set("window_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let fft = SoiFft::new(params).expect("suggested parameters validate");
    values.set("plan_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    std::hint::black_box(fft.make_workspace());
    values.set("workspace_s", t.elapsed().as_secs_f64());
    values.set("mesh_s", mesh_seconds(shape.transport)?);
    Ok(fft)
}

/// Roofline and single-node reference, shared by every traced run.
fn machine_layers(roof: &Roofline, values: &mut Values) {
    values.set("stream_copy_gbps", roof.copy_gbps);
    values.set("stream_triad_gbps", roof.triad_gbps);
    values.set("fft_peak_gflops", roof.fft_peak_gflops);
    values.set("axpy_peak_gflops", roof.axpy_peak_gflops);
    values.set(
        "stream_array_mib",
        roof.array_bytes as f64 / (1 << 20) as f64,
    );
    values.set("llc_mib", roof.llc_bytes as f64 / (1 << 20) as f64);
    values.set("cores", cores() as f64);
    values.set("ranks", RANKS as f64);
}

/// The input and its single-node reference, timing the reference FFT.
fn reference_layer(n: usize, seed: u64, values: &mut Values) -> (Vec<c64>, Vec<c64>) {
    let x = input::signal(n, seed);
    let plan = Plan::new(n);
    let mut want = x.clone();
    let t = Instant::now();
    plan.forward(&mut want);
    let s = t.elapsed().as_secs_f64();
    values.set("single_node_fft_s", s);
    values.set(
        "single_node_fft_gflops",
        soifft_fft::fft_flops(n) / s * 1e-9,
    );
    (x, want)
}

/// The traced run of `bulk-inproc` or `tcp-resilient`.
pub fn run_traced(
    workload: &str,
    shape: Shape,
    seed: u64,
    origin: Instant,
    spans: &mut Vec<Span>,
) -> Result<Outcome, String> {
    let roof = crate::roofline::measure(RANKS);
    let mut values = Values::default();
    machine_layers(&roof, &mut values);
    let fft = setup_layers(shape, params(shape.n), &mut values)?;
    println!("{}", provenance(workload, shape, &fft));
    let (x, want) = reference_layer(shape.n, seed, &mut values);
    let correct = layers(shape, &fft, &x, &want, &roof, origin, &mut values, spans)?;
    Ok(Outcome {
        correct,
        attempted: 1,
        failed: u64::from(!correct),
        values,
    })
}
