//! Golden-schema tests for the two telemetry exporters. The expected
//! strings are spelled out byte-for-byte: downstream tooling (Chrome's
//! `chrome://tracing`, Perfetto, jq pipelines) parses these formats, so
//! any schema drift must show up as a deliberate golden update in
//! review, never as an accident.
//!
//! Inputs are hand-constructed logs/reports — wall-clock timestamps from
//! a live run are not reproducible, the serialisation is what's under
//! test.

use zipf_lm::{
    chrome_trace_json, chrome_trace_json_with_counters, CounterTrack, ExchangeStats, RunSummary,
    SpanKind, StepMetrics, TimeAttribution, TraceEvent, TraceLog, TrainReport,
};

fn ev(rank: u32, step: u64, span: SpanKind, t0: u64, t1: u64, bytes: u64) -> TraceEvent {
    TraceEvent {
        rank,
        step,
        span,
        t_start_ns: t0,
        t_end_ns: t1,
        bytes,
    }
}

/// Fixed 2-rank log set: rank 0 carries a compute + gather + barrier
/// wait, rank 1 a compute + allreduce across two steps.
fn fixture_logs() -> Vec<TraceLog> {
    vec![
        TraceLog {
            rank: 0,
            events: vec![
                ev(0, 0, SpanKind::Compute, 1_000, 3_500, 0),
                ev(0, 0, SpanKind::Gather, 3_500, 4_000, 96),
                ev(0, 0, SpanKind::BarrierWait, 4_000, 4_750, 0),
            ],
            dropped: 0,
        },
        TraceLog {
            rank: 1,
            events: vec![
                ev(1, 0, SpanKind::Compute, 900, 3_100, 0),
                ev(1, 1, SpanKind::AllReduce, 3_100, 5_200, 128),
            ],
            dropped: 0,
        },
    ]
}

#[test]
fn chrome_trace_json_is_byte_stable() {
    let expected = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        // Track declarations: work track (2r) then wait track (2r+1),
        // ascending rank order, pinned by explicit sort indices.
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"sort_index\":0}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"rank 0 waits\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"sort_index\":1}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"rank 1\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"sort_index\":2}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\"args\":{\"name\":\"rank 1 waits\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\"args\":{\"sort_index\":3}},",
        // Complete (\"X\") events: µs timestamps with ns precision;
        // BarrierWait lands on the odd wait track.
        "{\"name\":\"Compute\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
        "\"ts\":1.000,\"dur\":2.500,\"args\":{\"step\":0,\"bytes\":0}},",
        "{\"name\":\"Gather\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
        "\"ts\":3.500,\"dur\":0.500,\"args\":{\"step\":0,\"bytes\":96}},",
        "{\"name\":\"BarrierWait\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":1,",
        "\"ts\":4.000,\"dur\":0.750,\"args\":{\"step\":0,\"bytes\":0}},",
        "{\"name\":\"Compute\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":2,",
        "\"ts\":0.900,\"dur\":2.200,\"args\":{\"step\":0,\"bytes\":0}},",
        "{\"name\":\"AllReduce\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":2,",
        "\"ts\":3.100,\"dur\":2.100,\"args\":{\"step\":1,\"bytes\":128}}",
        "]}",
    );
    assert_eq!(chrome_trace_json(&fixture_logs()), expected);
}

#[test]
fn chrome_trace_of_no_logs_is_an_empty_document() {
    assert_eq!(
        chrome_trace_json(&[]),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
    );
}

fn step(
    idx: u64,
    loss: f64,
    a: TimeAttribution,
    dense: u64,
    in_wire: u64,
    out_wire: Option<u64>,
    unique_global: usize,
) -> StepMetrics {
    StepMetrics {
        step: idx,
        train_loss: loss,
        sim_time_ps: a.total_ps(),
        attribution: a,
        wire_intra_alpha_ps: a.wire_intra_ps * 4 / 5,
        wire_inter_alpha_ps: a.wire_inter_ps * 9 / 10,
        input_exchange: ExchangeStats {
            wire_bytes: in_wire,
            unique_global,
            ..Default::default()
        },
        output_exchange: out_wire.map(|w| ExchangeStats {
            wire_bytes: w,
            ..Default::default()
        }),
        dense_bytes: dense,
        ..Default::default()
    }
}

#[test]
fn steps_jsonl_is_byte_stable() {
    let mut report = TrainReport::default();
    report.steps.push(step(
        0,
        5.25,
        TimeAttribution {
            compute_ps: 700,
            wire_intra_ps: 150,
            wire_inter_ps: 50,
            barrier_wait_ps: 80,
            skew_ps: 0,
            self_delay_ps: 0,
            overlapped_ps: 0,
        },
        4_096,
        960,
        Some(480),
        37,
    ));
    report.steps.push(step(
        1,
        4.5,
        TimeAttribution {
            compute_ps: 700,
            wire_intra_ps: 190,
            wire_inter_ps: 0,
            barrier_wait_ps: 0,
            skew_ps: 6_000,
            self_delay_ps: 0,
            overlapped_ps: 110,
        },
        4_096,
        950,
        None,
        35,
    ));
    // Non-finite losses must serialise as JSON null, not bare NaN.
    report.steps.push(step(
        2,
        f64::NAN,
        TimeAttribution {
            compute_ps: 700,
            wire_intra_ps: 0,
            wire_inter_ps: 210,
            barrier_wait_ps: 0,
            skew_ps: 0,
            self_delay_ps: 9_000,
            overlapped_ps: 0,
        },
        4_096,
        955,
        Some(500),
        36,
    ));

    let expected = concat!(
        "{\"step\":0,\"train_loss\":5.25,\"sim_time_ps\":980,\"compute_ps\":700,",
        "\"wire_ps\":200,\"wire_intra_ps\":150,\"wire_inter_ps\":50,",
        "\"barrier_wait_ps\":80,\"skew_ps\":0,\"self_delay_ps\":0,\"overlapped_ps\":0,",
        "\"dense_bytes\":4096,\"input_wire_bytes\":960,\"output_wire_bytes\":480,",
        "\"unique_global\":37,\"wire_intra_alpha_ps\":120,\"wire_inter_alpha_ps\":45}\n",
        "{\"step\":1,\"train_loss\":4.5,\"sim_time_ps\":7000,\"compute_ps\":700,",
        "\"wire_ps\":190,\"wire_intra_ps\":190,\"wire_inter_ps\":0,",
        "\"barrier_wait_ps\":0,\"skew_ps\":6000,\"self_delay_ps\":0,\"overlapped_ps\":110,",
        "\"dense_bytes\":4096,\"input_wire_bytes\":950,\"output_wire_bytes\":0,",
        "\"unique_global\":35,\"wire_intra_alpha_ps\":152,\"wire_inter_alpha_ps\":0}\n",
        "{\"step\":2,\"train_loss\":null,\"sim_time_ps\":9910,\"compute_ps\":700,",
        "\"wire_ps\":210,\"wire_intra_ps\":0,\"wire_inter_ps\":210,",
        "\"barrier_wait_ps\":0,\"skew_ps\":0,\"self_delay_ps\":9000,\"overlapped_ps\":0,",
        "\"dense_bytes\":4096,\"input_wire_bytes\":955,\"output_wire_bytes\":500,",
        "\"unique_global\":36,\"wire_intra_alpha_ps\":0,\"wire_inter_alpha_ps\":189}\n",
    );
    assert_eq!(report.steps_jsonl(), expected);
}

/// Codec-framed runs flow *compressed* sizes through the exporters: the
/// `wire_bytes`/`dense_bytes` a codec run reports are the encoded
/// counts, and the codec bookkeeping fields (`reduce_raw_bytes`,
/// `reduce_enc_bytes`, `index_enc_bytes`) are pricing inputs only —
/// they must NOT leak into the JSONL schema, so downstream jq pipelines
/// written against the identity format keep parsing codec runs
/// unchanged.
#[test]
fn steps_jsonl_schema_is_codec_agnostic_and_carries_compressed_bytes() {
    let attr = TimeAttribution {
        compute_ps: 700,
        wire_intra_ps: 150,
        wire_inter_ps: 50,
        barrier_wait_ps: 80,
        skew_ps: 0,
        self_delay_ps: 0,
        overlapped_ps: 0,
    };
    // A codec step: wire_bytes already compressed (enc < raw), with the
    // raw/enc bookkeeping populated the way the unique path fills it.
    let coded = StepMetrics {
        step: 0,
        train_loss: 5.25,
        sim_time_ps: attr.total_ps(),
        attribution: attr,
        input_exchange: ExchangeStats {
            wire_bytes: 512, // encoded: below the 960-byte raw flow
            unique_global: 37,
            reduce_raw_bytes: 1_480,
            reduce_enc_bytes: 1_110,
            index_enc_bytes: 288,
            ..Default::default()
        },
        output_exchange: None,
        dense_bytes: 3_072, // encoded dense ALLREDUCE charge
        ..Default::default()
    };
    // The identical step as an identity run would report it (enc==raw,
    // wire_bytes whatever the identity schedule charges).
    let identity = StepMetrics {
        input_exchange: ExchangeStats {
            wire_bytes: 512,
            unique_global: 37,
            reduce_raw_bytes: 1_480,
            reduce_enc_bytes: 1_480,
            index_enc_bytes: 1_440,
            ..Default::default()
        },
        ..coded
    };
    let mut a = TrainReport::default();
    a.steps.push(coded);
    let mut b = TrainReport::default();
    b.steps.push(identity);
    let expected = concat!(
        "{\"step\":0,\"train_loss\":5.25,\"sim_time_ps\":980,\"compute_ps\":700,",
        "\"wire_ps\":200,\"wire_intra_ps\":150,\"wire_inter_ps\":50,",
        "\"barrier_wait_ps\":80,\"skew_ps\":0,\"self_delay_ps\":0,\"overlapped_ps\":0,",
        "\"dense_bytes\":3072,\"input_wire_bytes\":512,\"output_wire_bytes\":0,",
        "\"unique_global\":37,\"wire_intra_alpha_ps\":0,\"wire_inter_alpha_ps\":0}\n",
    );
    // Same schema, same bytes: the compressed wire counts are what the
    // line carries, the codec bookkeeping never appears.
    assert_eq!(a.steps_jsonl(), expected);
    assert_eq!(a.steps_jsonl(), b.steps_jsonl());
}

/// Counter tracks and ring-drop metadata in the Chrome exporter:
/// "C"-phase points land after the spans on tid 0, and a log with
/// `dropped > 0` declares a `trace_truncated` metadata event on its
/// work track. Logs with `dropped == 0` serialise exactly as before —
/// `chrome_trace_json_is_byte_stable` above pins that.
#[test]
fn chrome_trace_counters_and_truncation_are_byte_stable() {
    let mut logs = fixture_logs();
    logs[1].dropped = 3;
    let counters = vec![CounterTrack {
        name: "wire_bytes_per_step",
        points: vec![(4_750, 5_056), (5_200, 4_992)],
    }];
    let expected = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"sort_index\":0}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"rank 0 waits\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"sort_index\":1}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"rank 1\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"sort_index\":2}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\"args\":{\"name\":\"rank 1 waits\"}},",
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\"args\":{\"sort_index\":3}},",
        // Rank 1 overflowed its ring: the truncation marker rides its
        // work track so a clipped trace is never silently trusted.
        "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"rank\":1,\"dropped\":3}},",
        "{\"name\":\"Compute\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
        "\"ts\":1.000,\"dur\":2.500,\"args\":{\"step\":0,\"bytes\":0}},",
        "{\"name\":\"Gather\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
        "\"ts\":3.500,\"dur\":0.500,\"args\":{\"step\":0,\"bytes\":96}},",
        "{\"name\":\"BarrierWait\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":1,",
        "\"ts\":4.000,\"dur\":0.750,\"args\":{\"step\":0,\"bytes\":0}},",
        "{\"name\":\"Compute\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":2,",
        "\"ts\":0.900,\"dur\":2.200,\"args\":{\"step\":0,\"bytes\":0}},",
        "{\"name\":\"AllReduce\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":2,",
        "\"ts\":3.100,\"dur\":2.100,\"args\":{\"step\":1,\"bytes\":128}},",
        "{\"name\":\"wire_bytes_per_step\",\"cat\":\"sim\",\"ph\":\"C\",\"pid\":0,\"tid\":0,",
        "\"ts\":4.750,\"args\":{\"wire_bytes_per_step\":5056}},",
        "{\"name\":\"wire_bytes_per_step\",\"cat\":\"sim\",\"ph\":\"C\",\"pid\":0,\"tid\":0,",
        "\"ts\":5.200,\"args\":{\"wire_bytes_per_step\":4992}}",
        "]}",
    );
    assert_eq!(chrome_trace_json_with_counters(&logs, &counters), expected);
    // No counters + no drops must stay byte-identical to the plain
    // exporter (the golden above).
    assert_eq!(
        chrome_trace_json_with_counters(&fixture_logs(), &[]),
        chrome_trace_json(&fixture_logs())
    );
}

/// RunSummary artifact golden: fixed field order, two-space indent, no
/// trailing newline — the exact bytes `bench-diff` goldens are checked
/// in as.
#[test]
fn run_summary_json_is_byte_stable() {
    let s = RunSummary {
        world: 4,
        config_fingerprint: "05124b61d31a861b".to_string(),
        steps: 8,
        sim_time_ps: 42_052_643_829,
        step_p50_ps: 5_256_711_422,
        step_p95_ps: 5_256_711_422,
        step_p99_ps: 5_256_711_422,
        step_max_ps: 5_256_711_422,
        compute_ps: 73_477_829,
        wire_intra_ps: 1_979_166_000,
        wire_inter_ps: 0,
        barrier_wait_ps: 0,
        skew_ps: 40_000_000_000,
        self_delay_ps: 0,
        overlapped_ps: 0,
        wire_intra_bytes: 3_787_392,
        wire_inter_bytes: 0,
        codec_raw_bytes: 180_032,
        codec_enc_bytes: 180_032,
        codec_ratio_milli: 1_000,
        train_loss: 6.5,
        dropped_spans: 0,
        health_events: 1,
        recoveries: 1,
        corruptions: 2,
    };
    let expected = concat!(
        "{\n",
        "  \"schema\": \"zlm.run_summary.v2\",\n",
        "  \"world\": 4,\n",
        "  \"config_fingerprint\": \"05124b61d31a861b\",\n",
        "  \"steps\": 8,\n",
        "  \"sim_time_ps\": 42052643829,\n",
        "  \"step_p50_ps\": 5256711422,\n",
        "  \"step_p95_ps\": 5256711422,\n",
        "  \"step_p99_ps\": 5256711422,\n",
        "  \"step_max_ps\": 5256711422,\n",
        "  \"compute_ps\": 73477829,\n",
        "  \"wire_intra_ps\": 1979166000,\n",
        "  \"wire_inter_ps\": 0,\n",
        "  \"barrier_wait_ps\": 0,\n",
        "  \"skew_ps\": 40000000000,\n",
        "  \"self_delay_ps\": 0,\n",
        "  \"overlapped_ps\": 0,\n",
        "  \"wire_intra_bytes\": 3787392,\n",
        "  \"wire_inter_bytes\": 0,\n",
        "  \"codec_raw_bytes\": 180032,\n",
        "  \"codec_enc_bytes\": 180032,\n",
        "  \"codec_ratio_milli\": 1000,\n",
        "  \"train_loss\": 6.5,\n",
        "  \"dropped_spans\": 0,\n",
        "  \"health_events\": 1,\n",
        "  \"recoveries\": 1,\n",
        "  \"corruptions\": 2\n",
        "}",
    );
    assert_eq!(s.to_json(), expected);
    // Non-finite losses serialise as JSON null, not a bare `NaN`.
    let nan = RunSummary {
        train_loss: f64::NAN,
        ..s
    };
    assert!(nan.to_json().contains("\"train_loss\": null"));
}
