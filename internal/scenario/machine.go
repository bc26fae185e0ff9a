package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"prestores/internal/memdev"
	"prestores/internal/sim"
)

// Axis-name prefixes of the machine sweeps: "config.<field>" sets one
// field of the machine's config JSON (a dotted path such as
// "llc.policy"), "devices.<window>.<param>" one device parameter of a
// window (the machine.devices patch keys).
const (
	configAxis  = "config."
	devicesAxis = "devices."
)

// machineChoice is the machine one grid row runs on: a preset (empty
// means the spec's custom config), the config fields its axes set, and
// the device patches per window.
type machineChoice struct {
	preset  string
	fields  map[string]any            // config JSON path → value
	devices map[string]map[string]any // window → device parameter patch
}

// buildMachine constructs a fresh machine for one run. Devices are
// rebuilt each time so runs never share device state.
func (s *Spec) buildMachine(mc machineChoice) (*sim.Machine, error) {
	var cfg sim.Config
	switch {
	case mc.preset != "":
		c, ok := sim.PresetConfig(mc.preset)
		if !ok {
			return nil, fmt.Errorf("machine.preset: unknown preset %q (one of %v)", mc.preset, presetNames())
		}
		cfg = c
	case s.Machine.Config != nil:
		// The spec's config holds live device instances; the codec
		// round trip below rebuilds them so repeated runs start from
		// pristine device state.
		cfg = *s.Machine.Config
	default:
		return nil, fmt.Errorf("machine: no machine resolved for this row")
	}
	if mc.fields != nil || mc.preset == "" {
		var err error
		if cfg, err = withConfigFields(cfg, mc.fields); err != nil {
			return nil, fmt.Errorf("machine.config: %v", err)
		}
	}
	for i, ws := range cfg.Windows {
		patch, ok := mc.devices[ws.Name]
		if !ok {
			continue
		}
		spec, ok := memdev.Describe(ws.Device)
		if !ok {
			return nil, fmt.Errorf("machine.devices.%s: window device is not patchable", ws.Name)
		}
		patched, err := spec.Apply(patch)
		if err != nil {
			return nil, fmt.Errorf("machine.devices.%s.%v", ws.Name, err)
		}
		dev, err := patched.Build()
		if err != nil {
			return nil, fmt.Errorf("machine.devices.%s.%v", ws.Name, err)
		}
		cfg.Windows[i].Device = dev
	}
	return sim.NewMachine(cfg), nil
}

// withConfigFields returns cfg with fields of its JSON form replaced
// (keys are dotted paths such as "llc.policy"), decoded back through
// sim's strict config codec — so an unknown field or a mistyped value
// is an error — which also builds fresh window devices.
func withConfigFields(cfg sim.Config, fields map[string]any) (sim.Config, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return sim.Config{}, err
	}
	if len(fields) > 0 {
		var doc map[string]any
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber() // keep 64-bit integers exact through the round trip
		if err := dec.Decode(&doc); err != nil {
			return sim.Config{}, err
		}
		for path, v := range fields {
			obj := doc
			keys := strings.Split(path, ".")
			for _, k := range keys[:len(keys)-1] {
				sub, ok := obj[k].(map[string]any)
				if !ok {
					sub = map[string]any{}
					obj[k] = sub
				}
				obj = sub
			}
			obj[keys[len(keys)-1]] = v
		}
		if data, err = json.Marshal(doc); err != nil {
			return sim.Config{}, err
		}
	}
	var out sim.Config
	if err := json.Unmarshal(data, &out); err != nil {
		return sim.Config{}, err
	}
	return out, nil
}

// withDeviceParam returns a copy of devices with one window parameter
// set; the input maps are not modified.
func withDeviceParam(devices map[string]map[string]any, win, key string, v any) map[string]map[string]any {
	out := make(map[string]map[string]any, len(devices)+1)
	for w, p := range devices {
		out[w] = p
	}
	patch := make(map[string]any, len(out[win])+1)
	for k, x := range out[win] {
		patch[k] = x
	}
	patch[key] = v
	out[win] = patch
	return out
}

// baseConfigs returns every machine config a row of the spec can start
// from: the custom config, the preset, or each preset of the machine
// axis. Validation checks machine patches against all of them.
func (s *Spec) baseConfigs() []sim.Config {
	switch {
	case s.Machine.Config != nil:
		return []sim.Config{*s.Machine.Config}
	case s.Machine.Preset != "":
		cfg, _ := sim.PresetConfig(s.Machine.Preset)
		return []sim.Config{cfg}
	}
	var bases []sim.Config
	axis, _ := s.axisFor("machine")
	for _, v := range axis.Values {
		if name, ok := v.(string); ok {
			if cfg, ok := sim.PresetConfig(name); ok {
				bases = append(bases, cfg)
			}
		}
	}
	return bases
}

// checkDevicePatch checks one window's device patch against every base
// machine; path names the spec field the patch came from.
func (s *Spec) checkDevicePatch(path, win string, patch map[string]any) error {
	for _, base := range s.baseConfigs() {
		var windows []string
		found := false
		for _, ws := range base.Windows {
			windows = append(windows, ws.Name)
			if ws.Name != win {
				continue
			}
			found = true
			spec, ok := memdev.Describe(ws.Device)
			if !ok {
				return fmt.Errorf("%s: window device is not patchable", path)
			}
			if _, err := spec.Apply(patch); err != nil {
				return fmt.Errorf("%s.%v", path, err)
			}
		}
		if !found {
			return fmt.Errorf("%s: no such window %q (machine %s has %v)", path, win, base.Name, windows)
		}
	}
	return nil
}

// validateDevicePatches checks machine.devices against the windows of
// the machine(s) the spec can resolve.
func (s *Spec) validateDevicePatches() error {
	names := make([]string, 0, len(s.Machine.Devices))
	for n := range s.Machine.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, win := range names {
		if err := s.checkDevicePatch("machine.devices."+win, win, s.Machine.Devices[win]); err != nil {
			return err
		}
	}
	return nil
}
