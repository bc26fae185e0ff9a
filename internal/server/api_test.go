package server

import "testing"

func mustKey(t *testing.T, kind, body string) string {
	t.Helper()
	k, err := Key(kind, []byte(body))
	if err != nil {
		t.Fatalf("Key(%s, %s): %v", kind, body, err)
	}
	return k
}

// TestKeyCanonicalization: spellings of one request share a key,
// different requests do not, and bodies the daemon would reject are
// errors.
func TestKeyCanonicalization(t *testing.T) {
	a := mustKey(t, "experiment", `{"id":"fig3","quick":true}`)
	if b := mustKey(t, "experiment", "{ \"quick\": true,\n  \"id\": \"fig3\" }"); a != b {
		t.Errorf("reordered, reformatted body keyed differently:\n%s\n%s", a, b)
	}
	if c := mustKey(t, "experiment", `{"id":"fig3","quick":false}`); a == c {
		t.Error("different bodies produced the same key")
	}
	if mustKey(t, "experiment", `{"id":"fig3"}`) != mustKey(t, "experiment", `{"id":"fig3","quick":false}`) {
		t.Error("spelled-out default keyed differently")
	}
	if mustKey(t, "trace", `{"workload":"clht"}`) != mustKey(t, "trace", `{"workload":"clht","mode":"dirtbuster"}`) {
		t.Error("trace mode default keyed differently")
	}

	const sp = `{"spec":{"version":1,"machine":{"preset":"machine-a"},` +
		`"workload":{"name":"sites","params":{"once_lines":256,"rounds":2}},` +
		`"policy":{"ops":["none"],"columns":[{"title":"elapsed","op":"none","metric":"elapsed"}]}}}`
	if mustKey(t, "scenario", sp) == mustKey(t, "eval", sp) {
		t.Error("different kinds produced the same key")
	}

	// Large integers survive the typed decode undamaged.
	if mustKey(t, "trace", `{"workload":"clht","mode":"pmcheck","pm_base":1099511627776}`) ==
		mustKey(t, "trace", `{"workload":"clht","mode":"pmcheck","pm_base":1099511627777}`) {
		t.Error("large integers collapsed to one key")
	}

	for _, tc := range []struct{ kind, body string }{
		{"experiment", `{not json`},
		{"experiment", `{"id":"fig3","qiuck":true}`}, // unknown field
		{"eval", `{"quick":true}`},                   // missing spec
		{"no-such-kind", `{}`},
	} {
		if _, err := Key(tc.kind, []byte(tc.body)); err == nil {
			t.Errorf("Key(%s, %s) accepted a body the daemon rejects", tc.kind, tc.body)
		}
	}
}
