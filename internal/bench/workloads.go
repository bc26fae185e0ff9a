package bench

import (
	// Every scenario workload (and key-value store) registers itself at
	// init time. They are all linked in here, whether or not an
	// experiment in this package names them, so every binary that serves
	// the scenario registry (prestore-bench, prestored and its shards,
	// perfbench) can run them.
	_ "prestores/internal/btree"
	_ "prestores/internal/workloads/clht"
	_ "prestores/internal/workloads/masstree"
	_ "prestores/internal/workloads/micro"
	_ "prestores/internal/workloads/nas"
	_ "prestores/internal/workloads/phoronix"
	_ "prestores/internal/workloads/sites"
	_ "prestores/internal/workloads/tensor"
	_ "prestores/internal/workloads/x9"
	_ "prestores/internal/workloads/ycsb"
)
