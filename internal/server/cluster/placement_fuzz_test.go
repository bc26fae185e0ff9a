package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"

	"prestores/internal/server"
)

// FuzzKeyPlacement checks the property the distributed cache rests on:
// every spelling of one submit body — keys reordered, whitespace
// added, defaults spelled out — has one content address (server.Key),
// and bodies with equal keys are placed on the same first shard of the
// ring's sequence, which is what the coordinator routes by. Bodies that
// are not one unambiguous request (duplicate keys in an object, under
// encoding/json's case-insensitive field matching) have no single
// meaning to preserve and are only checked for not panicking.
func FuzzKeyPlacement(f *testing.F) {
	var kinds []string
	for _, rt := range server.Routes() {
		if rt.Cluster == server.Routed {
			kinds = append(kinds, rt.Kind)
		}
	}
	const scenarioSpec = `{"version":1,"name":"custom-pmem","machine":{"preset":"machine-a","devices":{"pmem":{"read_lat":777}}},` +
		`"workload":{"name":"listing1","params":{"elem_size":512,"threads":1,"volume":1048576,"reread":false,"seed":5}},` +
		`"policy":{"ops":["none","clean"],"columns":[{"title":"base amp","op":"none","metric":"write_amp","format":"f2"},` +
		`{"title":"speedup","op":"none","metric":"elapsed","den_op":"clean","format":"x2"}]}}`
	const evalSpec = `{"version":1,"machine":{"preset":"machine-a"},` +
		`"workload":{"name":"sites","params":{"once_lines":256,"rounds":2}},` +
		`"policy":{"ops":["none"],"columns":[{"title":"elapsed","op":"none","metric":"elapsed"}]}}`
	seeds := map[string][]string{
		"experiment": {
			`{"id":"fig3","quick":true}`,
			`{"quick":true,"id":"fig3"}`,
			`{"id":"fig3","quick":false}`,
			` { "id" : "fig3" } `,
		},
		"dirtbuster": {
			`{"workload":"clht","quick":true}`,
			`{"quick":true,"workload":"clht"}`,
			`{"workload":"clht","quick":false}`,
			"{\n\t\"workload\": \"clht\"\n}",
		},
		"trace": {
			`{"workload":"clht"}`,
			`{"mode":"dirtbuster","workload":"clht"}`,
			`{"workload":"clht","mode":"pmcheck"}`,
			`{"pm_size":274877906944,"mode":"pmcheck","workload":"clht","pm_base":1099511627776}`,
		},
		"scenario": {
			`{"spec":` + scenarioSpec + `,"quick":true}`,
			`{"quick":true,"spec":` + scenarioSpec + `}`,
			`{"spec":` + scenarioSpec + `,"quick":false}`,
			` {"spec" : ` + scenarioSpec + ` } `,
		},
		"eval": {
			`{"spec":` + evalSpec + `}`,
			`{"quick":false,"spec":` + evalSpec + `}`,
			`{"spec":` + evalSpec + `,"quick":true}`,
			"{\"spec\":\n  " + evalSpec + "\n}",
		},
	}
	for i, kind := range kinds {
		if len(seeds[kind]) == 0 {
			f.Fatalf("no seed bodies for routed kind %q", kind)
		}
		for _, body := range seeds[kind] {
			f.Add(uint8(i), []byte(body))
		}
	}
	ring := NewRing([]string{"http://shard-a:8345", "http://shard-b:8345", "http://shard-c:8345"}, 0)

	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		kind := kinds[int(k)%len(kinds)]
		key, err := server.Key(kind, body)
		root, perr := parseOrdered(body)
		if perr != nil {
			return
		}
		variants := [][]byte{root.encode(false), root.encode(true)}
		var indented bytes.Buffer
		if json.Indent(&indented, root.encode(true), " ", "\t") == nil {
			variants = append(variants, append([]byte("\n"), indented.Bytes()...))
		}
		if d := root.withDefault(kind); d != nil {
			variants = append(variants, d.encode(false))
		}
		for _, v := range variants {
			vkey, verr := server.Key(kind, v)
			if (err == nil) != (verr == nil) {
				t.Fatalf("%s: %q and its spelling %q disagree on validity: %v vs %v", kind, body, v, err, verr)
			}
			if err != nil {
				continue
			}
			if vkey != key {
				t.Fatalf("%s: %q and its spelling %q have keys %s and %s", kind, body, v, key, vkey)
			}
			if a, b := ring.Sequence(key)[0], ring.Sequence(vkey)[0]; a != b {
				t.Fatalf("%s: equal keys %s placed on shards %d and %d", kind, key, a, b)
			}
		}
	})
}

// jsonNode is a parsed JSON value that keeps object members as a list,
// so a body can be re-spelled with its keys in any order.
type jsonNode struct {
	members []jsonMember // object members, when obj
	elems   []*jsonNode  // array elements, when arr
	scalar  any          // string, json.Number, bool or nil otherwise
	obj     bool
	arr     bool
}

type jsonMember struct {
	key string
	val *jsonNode
}

var errAmbiguous = errors.New("duplicate object key")

// parseOrdered parses the first JSON value of body the way the daemon's
// decoder reads it (trailing bytes ignored), rejecting objects with
// keys encoding/json would treat as the same field.
func parseOrdered(body []byte) (*jsonNode, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	return parseNode(dec)
}

func parseNode(dec *json.Decoder) (*jsonNode, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch tok {
	case json.Delim('{'):
		n := &jsonNode{obj: true}
		for dec.More() {
			kt, err := dec.Token()
			if err != nil {
				return nil, err
			}
			key, _ := kt.(string)
			for _, m := range n.members {
				if strings.EqualFold(m.key, key) {
					return nil, errAmbiguous
				}
			}
			val, err := parseNode(dec)
			if err != nil {
				return nil, err
			}
			n.members = append(n.members, jsonMember{key, val})
		}
		_, err := dec.Token()
		return n, err
	case json.Delim('['):
		n := &jsonNode{arr: true}
		for dec.More() {
			val, err := parseNode(dec)
			if err != nil {
				return nil, err
			}
			n.elems = append(n.elems, val)
		}
		_, err := dec.Token()
		return n, err
	}
	return &jsonNode{scalar: tok}, nil
}

// encode spells n compactly with every object's keys sorted, in
// reverse order when reverse is set.
func (n *jsonNode) encode(reverse bool) []byte {
	var b bytes.Buffer
	n.write(&b, reverse)
	return b.Bytes()
}

func (n *jsonNode) write(w io.Writer, reverse bool) {
	switch {
	case n.obj:
		ms := append([]jsonMember(nil), n.members...)
		sort.Slice(ms, func(i, j int) bool { return (ms[i].key < ms[j].key) != reverse })
		io.WriteString(w, "{")
		for i, m := range ms {
			if i > 0 {
				io.WriteString(w, ",")
			}
			k, _ := json.Marshal(m.key)
			w.Write(k)
			io.WriteString(w, ":")
			m.val.write(w, reverse)
		}
		io.WriteString(w, "}")
	case n.arr:
		io.WriteString(w, "[")
		for i, e := range n.elems {
			if i > 0 {
				io.WriteString(w, ",")
			}
			e.write(w, reverse)
		}
		io.WriteString(w, "]")
	default:
		if num, ok := n.scalar.(json.Number); ok {
			io.WriteString(w, num.String())
			return
		}
		v, _ := json.Marshal(n.scalar)
		w.Write(v)
	}
}

// withDefault returns n with the kind's top-level default spelled out
// ("quick": false, or a trace's "mode": "dirtbuster") when the body
// leaves it implicit, or nil when there is nothing to add.
func (n *jsonNode) withDefault(kind string) *jsonNode {
	if !n.obj {
		return nil
	}
	field, val := "quick", any(false)
	if kind == "trace" {
		field, val = "mode", any("dirtbuster")
	}
	for _, m := range n.members {
		if strings.EqualFold(m.key, field) {
			return nil
		}
	}
	d := *n
	d.members = append(append([]jsonMember(nil), n.members...), jsonMember{field, &jsonNode{scalar: val}})
	return &d
}
