package experiments

import "gonoc/internal/stats"

// Experiment is one entry of the reproduction suite.
type Experiment struct {
	ID  string
	Run func(seed int64, requests int) []*stats.Table
}

// Suite lists E1–E16 in suite order. requests is the write/read-back
// pairs per master for E2 and E3; the other experiments ignore it.
var Suite = []Experiment{
	{"E1", func(seed int64, _ int) []*stats.Table { return []*stats.Table{E1CompatibilityMatrix(seed)} }},
	{"E2", E2Performance},
	{"E3", func(seed int64, requests int) []*stats.Table {
		return []*stats.Table{E3SwitchingModes(seed, requests)}
	}},
	{"E4", func(seed int64, _ int) []*stats.Table { return []*stats.Table{E4Ordering(seed)} }},
	{"E5", func(int64, int) []*stats.Table { return []*stats.Table{E5GateScaling()} }},
	{"E6", func(seed int64, _ int) []*stats.Table { return []*stats.Table{E6ExclusiveVsLock(seed).Table} }},
	{"E7", func(seed int64, _ int) []*stats.Table { return []*stats.Table{E7QoS(seed).Table} }},
	{"E8", func(int64, int) []*stats.Table { return E8Physical().Tables }},
	{"E9", func(seed int64, _ int) []*stats.Table { return []*stats.Table{E9ServiceAblation(seed)} }},
	{"E10", func(seed int64, _ int) []*stats.Table { return E10TrafficSweep(seed).Tables }},
	{"E11", func(seed int64, _ int) []*stats.Table { return E11WishboneAdapter(seed).Tables }},
	{"E12", func(seed int64, _ int) []*stats.Table { return E12TopologyCampaign(seed).Tables }},
	{"E13", func(seed int64, _ int) []*stats.Table { return E13CongestionHeatmap(seed).Tables }},
	{"E14", func(seed int64, _ int) []*stats.Table { return E14Scenarios(seed).Tables }},
	{"E15", func(seed int64, _ int) []*stats.Table { return E15SelfProfile(seed).Tables }},
	{"E16", func(seed int64, _ int) []*stats.Table { return E16FidelitySweep(seed).Tables }},
}

// Report is the suite's machine-readable result: the document
// `nocbench -json` prints.
type Report struct {
	Seed        int64                     `json:"seed"`
	Requests    int                       `json:"requests"`
	Experiments map[string][]*stats.Table `json:"experiments"`
	Order       []string                  `json:"order"`
}

// RunSuite runs, in suite order, every experiment whose id sel accepts.
func RunSuite(seed int64, requests int, sel func(id string) bool) Report {
	r := Report{Seed: seed, Requests: requests, Experiments: map[string][]*stats.Table{}}
	for _, e := range Suite {
		if sel(e.ID) {
			r.Experiments[e.ID] = e.Run(seed, requests)
			r.Order = append(r.Order, e.ID)
		}
	}
	return r
}
