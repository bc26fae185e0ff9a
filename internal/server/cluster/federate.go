package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"prestores/internal/obs"
)

// Metrics federation: the coordinator's /metrics re-exports every
// daemon-level family (prestored_*) from the whole fleet — the
// embedded host plus each healthy worker shard — with a shard label
// identifying the origin ("self" for the embedded host, the shard's
// base URL otherwise). Families are merged by name so HELP/TYPE appear
// once per family with all origins' series beneath them, which keeps
// the combined exposition valid: Prometheus rejects duplicate family
// declarations but is happy with label-disjoint series.
//
// Each source is parsed through the strict promtext parser before
// re-emission; a shard whose exposition fails to fetch or parse is
// skipped (and counted in prestored_coordinator_federation_errors_total)
// rather than corrupting the combined page.

// writeFederated scrapes all sources and writes the merged, relabeled
// daemon families to w.
func (c *Coordinator) writeFederated(ctx context.Context, w io.Writer) {
	type source struct {
		label string
		text  []byte
	}
	var sources []source

	// The embedded host, scraped in process.
	rec := newRecorder()
	if req, err := http.NewRequestWithContext(ctx, "GET", "/metrics", nil); err == nil {
		c.tuner.Handler().ServeHTTP(rec, req)
		if rec.code == http.StatusOK {
			sources = append(sources, source{"self", rec.body.Bytes()})
		} else {
			c.m.scrapeErrors.Inc("self")
		}
	}

	// Every healthy worker shard, scraped over HTTP. Unhealthy shards
	// are skipped silently — the prober already accounts for them and a
	// scrape would only burn the request timeout.
	for i, url := range c.cfg.Shards {
		if !c.prober.healthy(i) {
			continue
		}
		resp, err := c.client.Get(ctx, url+"/metrics")
		if err != nil || resp.Code != http.StatusOK {
			c.m.scrapeErrors.Inc(url)
			continue
		}
		sources = append(sources, source{url, resp.Body})
	}

	byName := map[string]*obs.Family{}
	var merged []*obs.Family
	for _, src := range sources {
		fams, err := obs.ParseMetrics(bytes.NewReader(src.text))
		if err != nil {
			c.m.scrapeErrors.Inc(src.label)
			continue
		}
		for _, f := range fams {
			mf := byName[f.Name]
			if mf == nil {
				mf = &obs.Family{Name: f.Name, Help: f.Help, Type: f.Type}
				byName[f.Name] = mf
				merged = append(merged, mf)
			}
			for _, s := range f.Samples {
				mf.Samples = append(mf.Samples, s.WithLabel("shard", src.label))
			}
		}
	}
	obs.WriteMetrics(w, merged)
}
