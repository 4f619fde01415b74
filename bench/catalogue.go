package main

// catalogueEntry names one metric and its unit. BENCHMARK.json carries
// the same lists (the smoke test holds the two together), plus direction
// and regression bound for the end-to-end ones.
type catalogueEntry struct{ name, unit string }

// endToEndCatalogue is what a user of the system would see. Every
// workload reports every one; latency_p50_ms and throughput_per_s mean
// the workload's own operation (README: "End-to-end metrics").
var endToEndCatalogue = []catalogueEntry{
	{"setup_s", "s"},
	{"heap_after_setup_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"link_accuracy", "share"},
}

// perLayerCatalogue lists the single-layer metrics, prefixed by the
// package under internal/ that owns them (loadgen and trace are the
// harness's own validity checks).
var perLayerCatalogue = []catalogueEntry{
	{"httpapi.serve_us", "us"},
	{"httpapi.self_us", "us"},
	{"httpapi.socket_us", "us"},
	{"httpapi.batch_codec_us_per_mention", "us"},
	{"httpapi.link_p95_ms", "ms"},
	{"httpapi.link_p99_ms", "ms"},
	{"httpapi.batch_p99_ms", "ms"},
	{"httpapi.status_5xx", "count"},
	{"ner.extract_us", "us"},
	{"ner.mentions_per_tweet", "count"},
	{"candidate.lookup_us", "us"},
	{"candidate.cands_per_mention", "count"},
	{"candidate.index_build_ms", "ms"},
	{"kb.popularity_us", "us"},
	{"kb.restore_ms", "ms"},
	{"recency.scores_us", "us"},
	{"recency.memo_hit_share", "share"},
	{"recency.propnet_build_ms", "ms"},
	{"recency.groups_per_batch", "count"},
	{"influence.topk_us", "us"},
	{"influence.users_per_candidate", "count"},
	{"reach.query_ns", "ns"},
	{"reach.queries_per_mention", "count"},
	{"reach.twohop_build_ms", "ms"},
	{"reach.closure_build_ms", "ms"},
	{"reach.index_mb", "MB"},
	{"reach.rebuild_ms", "ms"},
	{"reach.install_us", "us"},
	{"reach.insert_edges_us_per_edge", "us"},
	{"reach.read_twohop_ms", "ms"},
	{"core.score_us", "us"},
	{"core.self_us", "us"},
	{"core.link_batch_us_per_mention", "us"},
	{"core.cache_hit_share", "share"},
	{"core.link_tweet_us", "us"},
	{"core.feedback_us", "us"},
	{"ingest.offer_us", "us"},
	{"ingest.queue_depth_mean", "count"},
	{"ingest.queue_depth_max", "count"},
	{"ingest.apply_lag_mean_ms", "ms"},
	{"ingest.arena_lag_mean_s", "s"},
	{"ingest.fail_share", "share"},
	{"ingest.shed_count", "count"},
	{"ingest.retries", "count"},
	{"ingest.rebuilds", "count"},
	{"ingest.swaps", "count"},
	{"ingest.staleness_peak_edges", "count"},
	{"ingest.unaccounted_share", "share"},
	{"store.append_us_per_record", "us"},
	{"store.wal_bytes_per_event", "B"},
	{"store.snapshot_ms", "ms"},
	{"store.commit_ms", "ms"},
	{"store.snapshot_bytes", "B"},
	{"store.open_ms", "ms"},
	{"store.load_graph_ms", "ms"},
	{"store.load_postings_ms", "ms"},
	{"store.load_tweets_ms", "ms"},
	{"store.replay_ms", "ms"},
	{"store.replay_records", "count"},
	{"tweets.append_us", "us"},
	{"synth.generate_ms", "ms"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.unaccounted_us", "us"},
}
