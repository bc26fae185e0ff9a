package dirtbuster

import (
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// AnalyzeTrace runs the DirtBuster analysis on a previously recorded
// operation trace instead of a live machine — the paper's intended
// offline usage: profile an application once in a performance-critical
// environment, then analyze the recording as an optimization pass.
//
// Step 1's ranking is derived from the same trace (a full recording
// subsumes sampling); steps 2 and 3 replay the records through the
// identical analysis the live pipeline uses. This is the in-memory
// form of the chunked Stats/Plan/Partial pipeline (AnalyzeChunkSource)
// — both produce byte-identical reports, which makes it the oracle
// the chunked path is checked against.
func AnalyzeTrace(app string, tb *trace.Buffer, lineSize uint64, cfg Config) *Report {
	stats := NewStats()
	tb.Replay(stats.AddRecord)
	plan := stats.Plan(app, lineSize, cfg)
	a := plan.NewAnalysis()
	if plan.WriteIntensive {
		tb.Replay(a.feed)
	}
	return a.Report()
}

// RecordStream runs the workload once streaming every operation into
// hook — typically a trace.Writer's — so recording memory stays
// bounded regardless of trace length. It returns the machine's line
// size.
func RecordStream(w Workload, hook sim.Hook) uint64 {
	m := w.NewMachine()
	m.SetHook(hook)
	w.Run(m)
	m.SetHook(nil)
	return m.LineSize()
}
