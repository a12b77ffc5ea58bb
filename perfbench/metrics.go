package main

// metricDef names one reported figure and its unit. The tables below are
// the benchmark's whole vocabulary: a pass reports every entry of its
// table, and BENCHMARK.json lists the same names (the self-test checks
// that the two agree).
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the serving stack sees, reported by the
// untraced pass of every workload. A workload's "unit" of work is a label
// (steady-batch), a session (session-churn) or a similarity evaluation
// (similarity); an "operation" is one closed-loop call: a 256-sample
// pipelined classification, one session from dial to labels, or one
// evaluation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_us_per_unit", "us"},
	{"max_rss_mb", "MiB"},
}

// perLayer is reported by the traced pass. A layer a workload does not
// exercise reports 0: that is the prediction the workload split makes.
var perLayer = []metricDef{
	// classify: in-memory replay of the batch path, per 64-sample batch.
	{"classify.new_batch_us", "us"},
	{"classify.handle_batch_us", "us"},
	{"classify.finish_batch_us", "us"},
	{"classify.encode_sample_us", "us"},
	// ompe: the program's own phase timers, per networked batch.
	{"ompe.sender.mask_us", "us"},
	{"ompe.receiver.interpolate_us", "us"},
	// ot: IKNP extension per networked batch; base OT and restore from
	// in-memory replay; Naor–Pinkas per networked similarity evaluation.
	{"ot.extend_us", "us"},
	{"ot.transpose_us", "us"},
	{"ot.pad_us", "us"},
	{"ot.base_full_ms", "ms"},
	{"ot.group_exp_per_full_handshake", "count"},
	{"ot.restore_us", "us"},
	{"ot.np.sender_setup_ms", "ms"},
	{"ot.np.sender_respond_ms", "ms"},
	{"ot.np.receiver_choice_ms", "ms"},
	{"ot.np.receiver_recover_ms", "ms"},
	{"ot.group_exp_per_similarity", "count"},
	// wire: binary codec of the batch messages, in-memory replay.
	{"wire.batch_request_encode_us", "us"},
	{"wire.batch_request_decode_us", "us"},
	{"wire.batch_response_encode_us", "us"},
	{"wire.batch_response_decode_us", "us"},
	{"wire.client_bytes_out_per_query", "bytes"},
	{"wire.client_bytes_in_per_query", "bytes"},
	// transport: what the networked path adds over the in-memory layers.
	{"transport.batch_residual_us", "us"},
	{"transport.unattributed_ratio", "ratio"},
	{"transport.msgs_per_batch", "count"},
	{"transport.handshake_full_ms", "ms"},
	{"transport.handshake_resumed_us", "us"},
	{"transport.resume_grant_ratio", "ratio"},
	{"session.first_label_full_p50_ms", "ms"},
	{"session.first_label_full_p90_ms", "ms"},
	{"session.first_label_resumed_p50_ms", "ms"},
	{"session.first_label_resumed_p90_ms", "ms"},
	// gateway
	{"gateway.connect_overhead_us", "us"},
	{"gateway.affinity_hit_ratio", "ratio"},
	{"gateway.shed", "count"},
	{"gateway.failovers", "count"},
	// similarity: the program's own phase timers, per evaluation.
	{"similarity.boundary_us", "us"},
	{"similarity.round.centroid_ms", "ms"},
	{"similarity.round.normal_ms", "ms"},
	{"similarity.round.area_ms", "ms"},
	// set-up, median over the set-up repetitions.
	{"dataset.generate_ms", "ms"},
	{"svm.train_ms", "ms"},
	{"registry.publish_ms", "ms"},
	{"transport.session_open_ms", "ms"},
	// Go runtime over the traced pass, per unit of work.
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_share", "ratio"},
	// attribution and tracing overhead.
	{"trace.op_p50_us", "us"},
	{"trace.layer_sum_us", "us"},
	{"trace.unattributed_us", "us"},
	{"trace.overhead_throughput_ratio", "ratio"},
	{"trace.overhead_latency_p50_ratio", "ratio"},
	{"trace.overhead_cpu_ratio", "ratio"},
	{"run.failed_ratio", "ratio"},
}
