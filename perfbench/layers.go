package main

// layerLink places one per-layer metric in the layer map: the workload
// whose traced pass measures it, the end-to-end metrics (workload/name, by
// their workload-specific names) a change in the layer should move, and
// those it is predicted not to move.
type layerLink struct {
	metric, workload string
	moves, noChange  []string
}

var (
	frontEndMoves  = []string{"analyze-cold/analyze_ms_p50"}
	planMoves      = []string{"analyze-cold/analyze_ms_p90", "analyze-cold/analyze_nodes_per_s", "analyze-cold/analyze_alloc_bytes_per_node", "profile-batch/setup_s", "service-mix/service_ms_p99"}
	batchLoop      = []string{"profile-batch/sarkar_seeds_per_s", "profile-batch/bl_seeds_per_s"}
	coldLatency    = []string{"analyze-cold/analyze_ms_p50", "analyze-cold/analyze_ms_p90", "analyze-cold/analyze_nodes_per_s"}
	serviceTail    = []string{"service-mix/service_ms_p99", "service-mix/service_req_per_s"}
	notService     = []string{"analyze-cold/analyze_ms_p50", "profile-batch/sarkar_seeds_per_s"}
	serviceWarmRun = []string{"service-mix/service_ms_p50"}
)

// layerMap is the layer → end-to-end map the traced run reports.
var layerMap = []layerLink{
	{"lang.parse_ms", "analyze-cold", frontEndMoves, batchLoop},
	{"lower.lower_ms", "analyze-cold", frontEndMoves, batchLoop},
	{"interval.analyze_ms", "analyze-cold", frontEndMoves, batchLoop},
	{"ecfg.build_ms", "analyze-cold", frontEndMoves, batchLoop},
	{"cdg.build_ms", "analyze-cold", frontEndMoves, batchLoop},
	{"dataflow.analyze_ms", "analyze-cold", frontEndMoves, batchLoop},
	{"analysis.alloc_bytes", "analyze-cold", append(frontEndMoves, "analyze-cold/analyze_alloc_bytes_per_node"), batchLoop},
	{"analysis.slope", "analyze-cold", []string{"analyze-cold/analyze_ms_p90", "analyze-cold/analyze_nodes_per_s"}, batchLoop},
	{"profiler.plan_ms", "analyze-cold", planMoves, append(batchLoop, "service-mix/service_ms_p50")},
	{"profiler.plan_alloc_bytes", "analyze-cold", planMoves, append(batchLoop, "service-mix/service_ms_p50")},
	{"profiler.plan_slope", "analyze-cold", planMoves, append(batchLoop, "service-mix/service_ms_p50")},
	{"interp.run_ms", "analyze-cold", nil, coldLatency},
	{"core.estimate_ms", "analyze-cold", nil, coldLatency},
	{"lower.cfg_nodes", "analyze-cold", nil, nil},
	{"profiler.counters_per_block", "analyze-cold", nil, nil},
	{"vm.compile_ms", "profile-batch", []string{"profile-batch/setup_s"}, coldLatency},
	{"vm.batch_exec_ns_per_seed", "profile-batch", []string{"profile-batch/sarkar_seeds_per_s"}, append([]string{"profile-batch/bl_seeds_per_s"}, coldLatency...)},
	{"profiler.recover_ns_per_seed", "profile-batch", []string{"profile-batch/sarkar_seeds_per_s"}, []string{"profile-batch/bl_seeds_per_s", "analyze-cold/analyze_ms_p90"}},
	{"vm.path_exec_ns_per_seed", "profile-batch", []string{"profile-batch/bl_seeds_per_s"}, append([]string{"profile-batch/sarkar_seeds_per_s"}, coldLatency...)},
	{"pathprof.recover_ns_per_seed", "profile-batch", []string{"profile-batch/bl_seeds_per_s"}, append([]string{"profile-batch/sarkar_seeds_per_s"}, coldLatency...)},
	{"vm.alloc_bytes_per_seed", "profile-batch", []string{"profile-batch/profile_alloc_bytes_per_seed"}, []string{"analyze-cold/analyze_alloc_bytes_per_node"}},
	{"profiler.bumps_per_run", "profile-batch", nil, nil},
	{"pathprof.fallback_procs", "profile-batch", nil, nil},
	{"service.queue_wait_ms_p50", "service-mix", serviceTail, notService},
	{"service.queue_wait_ms_p99", "service-mix", serviceTail, notService},
	{"service.compile_ms", "service-mix", []string{"service-mix/service_ms_p99"}, notService},
	{"service.profile_ms", "service-mix", serviceWarmRun, notService},
	{"service.estimate_ms", "service-mix", serviceWarmRun, notService},
	{"service.lru_hit_ratio", "service-mix", []string{"service-mix/service_ms_p50", "service-mix/service_req_per_s"}, notService},
	{"artifact.disk_hit_ratio", "service-mix", []string{"service-mix/service_req_per_s"}, coldLatency},
	{"artifact.reject", "service-mix", []string{"service-mix/service_req_per_s"}, coldLatency},
	{"artifact.cold_load_ms", "service-mix", serviceWarmRun, coldLatency},
	{"artifact.warm_load_ms", "service-mix", serviceWarmRun, coldLatency},
	{"vm.run_ns_per_seed", "service-mix", serviceWarmRun, coldLatency},
	{"trace.analyze-cold.overhead_ms", "analyze-cold", nil, nil},
	{"trace.profile-batch.overhead_ms", "profile-batch", nil, nil},
	{"trace.service-mix.overhead_ms", "service-mix", nil, nil},
}

// layerRow is one layerMap entry with its measured value.
type layerRow struct {
	Metric   string   `json:"metric"`
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Workload string   `json:"workload"`
	Moves    []string `json:"moves,omitempty"`
	NoChange []string `json:"no_change,omitempty"`
}

func layerRows(measured map[string]metric) []layerRow {
	rows := make([]layerRow, 0, len(layerMap))
	for _, l := range layerMap {
		m := measured[l.metric]
		rows = append(rows, layerRow{Metric: l.metric, Value: m.Value, Unit: m.Unit, Workload: l.workload, Moves: l.moves, NoChange: l.noChange})
	}
	return rows
}
