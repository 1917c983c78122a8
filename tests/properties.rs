//! Property-based tests (proptest) on the core invariants, spanning
//! crates: numeric codecs, quantization error ordering, performance-model
//! monotonicities, allocator safety and energy integration.

use edgellm::check::oracles::{check_fleet, check_serve};
use edgellm::core::serve::{ServeConfig, ServeSim};
use edgellm::core::{Engine, PoissonArrivals, RunConfig, SequenceSpec};
use edgellm::corpus::{BpeTokenizer, CorpusKind, SyntheticCorpus};
use edgellm::fleet::{run_fleet, FaultPlan, FleetConfig, FleetDevice, FleetSim, JoinShortestQueue};
use edgellm::hw::{DeviceSpec, PowerMode};
use edgellm::mem::PagedKv;
use edgellm::models::{Llm, Precision};
use edgellm::nn::{KvCache, TinyCausalLm, TinyConfig};
use edgellm::perf::PerfModel;
use edgellm::power::{median_power_w, sample_timeline, trapezoid_energy_j, Phase};
use edgellm::quant::{QuantError, QuantizedWeights, WeightPrecision};
use edgellm::tensor::{f16_to_f32, f32_to_f16, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f16 round-trip error is within half an ulp for normal-range values.
    #[test]
    fn f16_roundtrip_relative_error(v in -6.0e4f32..6.0e4f32) {
        let rt = f16_to_f32(f32_to_f16(v));
        // Normal range: relative error ≤ 2^-11; near zero: absolute
        // error below the smallest subnormal step.
        if v.abs() > 1e-4 {
            prop_assert!((rt - v).abs() <= v.abs() * 4.9e-4, "{v} → {rt}");
        } else {
            prop_assert!((rt - v).abs() <= 6.0e-8, "{v} → {rt}");
        }
    }

    /// f16 conversion is monotone: a ≤ b ⇒ rt(a) ≤ rt(b).
    #[test]
    fn f16_conversion_is_monotone(a in -1.0e4f32..1.0e4, b in -1.0e4f32..1.0e4) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(f16_to_f32(f32_to_f16(lo)) <= f16_to_f32(f32_to_f16(hi)));
    }

    /// Quantization error is ordered fp16 ≤ int8 ≤ int4 on random weights.
    #[test]
    fn quant_error_ladder(seed in 0u64..1000, scale in 0.01f32..0.5) {
        let w = Matrix::rand_normal(24, 128, scale, seed);
        let e16 = QuantError::measure(&w, WeightPrecision::Fp16).mse;
        let e8 = QuantError::measure(&w, WeightPrecision::Int8).mse;
        let e4 = QuantError::measure(&w, WeightPrecision::Int4).mse;
        prop_assert!(e16 <= e8 * 1.001, "fp16 {e16} vs int8 {e8}");
        prop_assert!(e8 <= e4 * 1.001, "int8 {e8} vs int4 {e4}");
    }

    /// Quantized products stay within an error bound that shrinks with
    /// precision (relative to output magnitude).
    #[test]
    fn quantized_matmul_bounded(seed in 0u64..200) {
        let w = Matrix::rand_normal(16, 64, 0.1, seed);
        let x = Matrix::rand_kaiming(4, 64, seed ^ 0xABCD);
        let exact = edgellm::tensor::matmul::matmul_nt(&x, &w);
        let norm = exact.frob_norm() + 1e-3;
        for (p, tol) in [
            (WeightPrecision::Fp16, 0.01f32),
            (WeightPrecision::Int8, 0.05),
            (WeightPrecision::Int4, 0.30),
        ] {
            let approx = QuantizedWeights::quantize(&w, p).matmul_nt(&x);
            let mut diff = approx.clone();
            diff.axpy(-1.0, &exact);
            prop_assert!(diff.frob_norm() <= tol * norm,
                "{p:?}: {} vs bound {}", diff.frob_norm(), tol * norm);
        }
    }

    /// Latency is monotone in batch size and sequence length.
    #[test]
    fn latency_monotone(bs in 1u64..128, extra in 1u64..64) {
        let dev = DeviceSpec::orin_agx_64gb();
        let m = PerfModel::new(dev.clone(), Llm::Llama31_8b, Precision::Fp16, dev.max_clocks());
        prop_assert!(m.latency_s(bs + extra, 32, 64) > m.latency_s(bs, 32, 64));
        prop_assert!(m.latency_s(bs, 32, 64 + extra) > m.latency_s(bs, 32, 64));
    }

    /// Downclocking any domain never speeds inference up.
    #[test]
    fn downclocking_never_helps(
        gpu in 200u32..1301,
        cpu in 6u32..22,
        mem in 600u32..3200,
    ) {
        let dev = DeviceSpec::orin_agx_64gb();
        let maxn = PerfModel::new(dev.clone(), Llm::MistralSmall24b, Precision::Fp16, dev.max_clocks());
        let pm = PowerMode::custom("t", gpu, cpu as f64 / 10.0, 12, mem);
        prop_assume!(pm.validate(&dev).is_ok());
        let throttled = PerfModel::new(dev.clone(), Llm::MistralSmall24b, Precision::Fp16, pm.clocks);
        prop_assert!(throttled.latency_s(32, 32, 64) >= maxn.latency_s(32, 32, 64) - 1e-9);
    }

    /// KV allocator (`PagedKv`, prefix cache off): blocks are conserved
    /// across arbitrary workloads and every refcount matches its holder.
    #[test]
    fn kv_allocator_conserves_blocks(ops in proptest::collection::vec((0u32..8, 1u64..64), 1..40)) {
        let mut a = PagedKv::new(1 << 22, 16, 1024); // 256 blocks
        let total = a.total_blocks();
        let mut live: std::collections::HashSet<u32> = Default::default();
        for (seq, tokens) in ops {
            if live.contains(&seq) && tokens % 3 == 0 {
                a.release(seq).unwrap();
                live.remove(&seq);
            } else {
                a.register(seq);
                live.insert(seq);
                let _ = a.append(seq, tokens); // may exhaust: fine
            }
            prop_assert_eq!(a.verify(), Vec::<String>::new());
        }
        for s in live {
            a.release(s).unwrap();
        }
        prop_assert_eq!(a.free_blocks(), total);
        prop_assert_eq!(a.verify(), Vec::<String>::new());
    }

    /// Trapezoidal energy of any sampled timeline is bounded by
    /// min/max power × duration, and median lies between the extremes.
    #[test]
    fn energy_and_median_bounds(
        powers in proptest::collection::vec(5.0f64..60.0, 1..6),
        dur in 0.5f64..30.0,
        seed in 0u64..500,
    ) {
        let phases: Vec<Phase> = powers
            .iter()
            .map(|&p| Phase { duration_s: dur, power_w: p })
            .collect();
        let trace = sample_timeline(&phases, 2.0, seed);
        let total: f64 = phases.iter().map(|p| p.duration_s).sum();
        let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min) * 0.97;
        let hi = powers.iter().cloned().fold(0.0, f64::max) * 1.03;
        let e = trapezoid_energy_j(&trace);
        prop_assert!(e >= lo * total && e <= hi * total, "E {e} outside [{}, {}]",
            lo * total, hi * total);
        let med = median_power_w(&trace);
        prop_assert!(med >= lo && med <= hi);
    }

    /// BPE round-trips any synthetic corpus drawn from either profile.
    #[test]
    fn bpe_roundtrip_any_seed(seed in 0u64..50, wiki in proptest::bool::ANY) {
        let kind = if wiki { CorpusKind::WikiText2Like } else { CorpusKind::LongBenchLike };
        let c = SyntheticCorpus::generate(kind, 1500, seed);
        let tok = BpeTokenizer::train(&c.text, 300);
        prop_assert_eq!(tok.decode(&tok.encode(&c.text)), c.text);
    }

    /// Serve scheduler: every generated token is accounted exactly once
    /// and KV blocks balance at drain — even when a deliberately tiny KV
    /// pool forces preemption/recompute cycles mid-decode. The invariants
    /// themselves live in `edgellm::check::oracles` (shared with the
    /// `edgellm-check` fuzzing harness); the explicit assertions below
    /// restate the originals so a regression names the quantity directly.
    #[test]
    fn serve_conserves_tokens_and_kv_under_preemption(
        n in 6usize..16,
        seed in 0u64..200,
        pool_seqs in 3u64..7,
    ) {
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let mut arr = PoissonArrivals::paper_shape(4.0);
        arr.input_tokens = 48;
        arr.output_tokens = 96;
        arr.shape_jitter = 0.0;
        let reqs = arr.generate(n, seed);
        let pool = pool_seqs * 144 * cfg.llm.arch().kv_bytes_per_token();
        let mut sim = ServeSim::new(ServeConfig::chunked(8).kv_pool_cap(pool), &dev, &cfg, &reqs)
            .unwrap();
        while let Some(now) = sim.next_event_s() {
            sim.step(now).unwrap();
        }
        let audit = sim.audit();
        let violations = check_serve(&audit, &reqs);
        prop_assert!(violations.is_empty(), "oracles: {violations:?}");
        let r = sim.run().unwrap();
        let submitted: u64 = reqs.iter().map(|q| q.output_tokens).sum();
        prop_assert_eq!(r.report.requests, n);
        prop_assert_eq!(r.audit.served_output_tokens, submitted);
        prop_assert_eq!(r.audit.kv_blocks_allocated, r.audit.kv_blocks_freed);
        let last = r.audit.trace.last().unwrap();
        prop_assert_eq!(last.kv_blocks_used, 0, "pool must drain");
    }

    /// Makespan is monotone in offered load: compressing the same arrival
    /// trace (identical request shapes, same seed) can only finish the
    /// workload sooner.
    #[test]
    fn serve_makespan_monotone_in_load(
        seed in 0u64..100,
        lo_rate in 0.2f64..0.8,
        mult in 2.0f64..5.0,
    ) {
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let lo_reqs = PoissonArrivals::paper_shape(lo_rate).generate(24, seed);
        let hi_reqs = PoissonArrivals::paper_shape(lo_rate * mult).generate(24, seed);
        let run = |reqs| ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, reqs)
            .and_then(ServeSim::run)
            .unwrap();
        let lo = run(&lo_reqs);
        let hi = run(&hi_reqs);
        prop_assert!(
            hi.report.makespan_s <= lo.report.makespan_s + 1e-9,
            "hi-load {} vs lo-load {}", hi.report.makespan_s, lo.report.makespan_s
        );
    }

    /// Chunked prefill never meaningfully worsens mean TTFT versus
    /// blocking prefill, and wins when admissions contend with decode
    /// (prefill-heavy model under load).
    #[test]
    fn serve_chunked_ttft_no_worse_than_blocking(
        seed in 0u64..100,
        rate in 0.8f64..2.5,
    ) {
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::MistralSmall24b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(rate).generate(40, seed);
        let run = |serve| ServeSim::new(serve, &dev, &cfg, &reqs)
            .and_then(ServeSim::run)
            .unwrap();
        let block = run(ServeConfig::blocking(16));
        let chunked = run(ServeConfig::chunked(16));
        prop_assert!(
            chunked.report.mean_ttft_s <= block.report.mean_ttft_s * 1.02 + 0.05,
            "chunked {} vs blocking {}",
            chunked.report.mean_ttft_s, block.report.mean_ttft_s
        );
    }

    /// Fleet serving conserves work under forced dropout: with a second
    /// device to absorb the re-routed requests, every submitted request —
    /// and every output token — completes no matter when the first device
    /// drops or how long it stays down.
    #[test]
    fn fleet_conserves_requests_under_dropout(
        n in 8usize..20,
        seed in 0u64..100,
        down in 1.0f64..6.0,
        dur in 2.0f64..30.0,
    ) {
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let members = vec![
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg.clone()),
            FleetDevice::new(DeviceSpec::orin_agx_64gb(), cfg),
        ];
        let reqs = PoissonArrivals::paper_shape(2.0).generate(n, seed);
        let fc = FleetConfig {
            faults: FaultPlan::none().outage(0, down, down + dur),
            ..FleetConfig::default()
        };
        let audit = FleetSim::new(members, Box::new(JoinShortestQueue), fc, &reqs)
            .unwrap()
            .run_audited()
            .unwrap();
        let violations = check_fleet(&audit, &reqs);
        prop_assert!(violations.is_empty(), "oracles: {violations:?}");
        let r = &audit.report;
        prop_assert_eq!(r.completed, n, "all requests complete");
        prop_assert_eq!(r.lost, 0);
        prop_assert_eq!(
            r.output_tokens,
            reqs.iter().map(|q| q.output_tokens).sum::<u64>(),
            "token conservation across re-routing"
        );
    }

    /// On a homogeneous fleet, join-shortest-queue never finishes the
    /// trace later than one of its devices serving the whole trace alone:
    /// per-iteration cost is monotone in co-batched sequences, so
    /// splitting load across twins can only help.
    #[test]
    fn fleet_jsq_makespan_no_worse_than_single_device(
        n in 8usize..20,
        seed in 0u64..100,
        rate in 0.5f64..3.0,
    ) {
        let dev = DeviceSpec::orin_agx_64gb();
        let cfg = RunConfig::new(Llm::Llama31_8b, Precision::Fp16);
        let reqs = PoissonArrivals::paper_shape(rate).generate(n, seed);
        let single = ServeSim::new(ServeConfig::chunked(16), &dev, &cfg, &reqs)
            .and_then(ServeSim::run)
            .unwrap();
        let members = vec![
            FleetDevice::new(dev.clone(), cfg.clone()),
            FleetDevice::new(dev.clone(), cfg),
        ];
        let fleet =
            run_fleet(members, Box::new(JoinShortestQueue), FleetConfig::default(), &reqs).unwrap();
        prop_assert!(
            fleet.makespan_s <= single.report.makespan_s + 1e-9,
            "fleet {} vs single device {}", fleet.makespan_s, single.report.makespan_s
        );
    }

    /// A radix warm hit serves bitwise-identically to a cold run: after
    /// a sibling request leaves a shared prefix in the KV cache,
    /// resuming prefill from that prefix reproduces the cold full-prompt
    /// logits bit for bit at every weight precision, the greedy token
    /// stream continues identically, and none of those bits move across
    /// `EDGELLM_THREADS` = 1/2/8 (exercised in-process via
    /// `rayon::with_num_threads`, the same override the env var
    /// reaches) — the golden outputs a cached serve run reports are the
    /// same ones a cache-off run would have produced.
    #[test]
    fn warm_prefix_hit_is_bitwise_identical_to_cold_across_threads(
        seed in 0u64..40,
        split in 2usize..14,
        suffix in 2usize..10,
        prec_idx in 0usize..4,
    ) {
        let prompt: Vec<u32> = (0..split + suffix)
            .map(|i| ((seed.wrapping_mul(31).wrapping_add(i as u64 * 7)) % 256) as u32)
            .collect();
        let argmax = |l: &[f32]| {
            l.iter().enumerate().fold((0usize, f32::NEG_INFINITY), |best, (i, &v)| {
                if v > best.1 { (i, v) } else { best }
            }).0 as u32
        };
        // (cold logit bits, warm suffix logit bits, cold stream, warm
        // stream) at one thread count.
        let observe = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let base = TinyCausalLm::new(TinyConfig::small(seed));
                let m = match prec_idx {
                    0 => base,
                    1 => base.to_precision(edgellm::quant::WeightPrecision::Fp16),
                    2 => base.to_precision(edgellm::quant::WeightPrecision::Int8),
                    _ => base.to_precision(edgellm::quant::WeightPrecision::Int4),
                };
                let mut cold_cache = m.new_cache();
                let cold = m.prefill(&prompt, &mut cold_cache);
                // A sibling request that shares only the prefix warms
                // the cache past the split point, as a radix hit would.
                let mut warm_cache = m.new_cache();
                let mut sibling = prompt[..split].to_vec();
                sibling.extend([251, 252, 253]);
                m.prefill(&sibling, &mut warm_cache);
                let warm = m.prefill_from(split, &prompt, &mut warm_cache);
                let decode = |cache: &mut KvCache, last_logits: &[f32]| {
                    let mut stream = Vec::new();
                    let mut logits = last_logits.to_vec();
                    for _ in 0..8 {
                        let t = argmax(&logits);
                        stream.push(t);
                        logits = m.forward_step(t, cache);
                    }
                    stream
                };
                let cold_bits: Vec<u32> = (split..cold.rows)
                    .flat_map(|r| cold.row(r).iter().map(|v| v.to_bits()))
                    .collect();
                let warm_bits: Vec<u32> = (0..warm.rows)
                    .flat_map(|r| warm.row(r).iter().map(|v| v.to_bits()))
                    .collect();
                let cold_stream = decode(&mut cold_cache, cold.row(cold.rows - 1));
                let warm_stream = decode(&mut warm_cache, warm.row(warm.rows - 1));
                (cold_bits, warm_bits, cold_stream, warm_stream)
            })
        };
        let reference = observe(1);
        prop_assert_eq!(&reference.0, &reference.1, "warm suffix logits differ from cold");
        prop_assert_eq!(&reference.2, &reference.3, "warm token stream diverges from cold");
        for threads in [2usize, 8] {
            prop_assert_eq!(&reference, &observe(threads), "bits moved at {} threads", threads);
        }
    }

    /// The engine never reports peak memory above device capacity, and
    /// throughput always satisfies its definition.
    #[test]
    fn engine_invariants(bs in 1u64..96, sl_idx in 0usize..4, model_idx in 0usize..4) {
        let llm = Llm::ALL[model_idx];
        let prec = if llm == Llm::DeepseekQwen32b { Precision::Int8 } else { Precision::Fp16 };
        let sl = [128u64, 256, 512, 1024][sl_idx];
        let engine = Engine::orin_agx_64gb();
        let cfg = RunConfig::new(llm, prec)
            .batch_size(bs)
            .sequence(SequenceSpec::paper_sweep(sl));
        if let Ok(m) = engine.run_batch(&cfg) {
            prop_assert!(m.peak_mem_gb <= 64.0);
            let expect = bs as f64 * sl as f64 / m.latency_s;
            prop_assert!((m.throughput_tok_s - expect).abs() < 1e-6);
            prop_assert!(m.energy_j > 0.0 && m.median_power_w > 5.0);
        }
    }
}
