package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	endToEnd []metricDef
	perLayer []metricDef
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// parseSpec reads the metric lists of a benchmark definition and checks
// every name, unit and direction, and that no name repeats.
func parseSpec(b []byte) (*benchSpec, error) {
	var raw struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{raw.EndToEnd, raw.PerLayer} {
		for _, d := range list {
			switch {
			case !validName(d.Name):
				return nil, fmt.Errorf("benchmark definition: bad metric name %q", d.Name)
			case seen[d.Name]:
				return nil, fmt.Errorf("benchmark definition: metric %q listed twice", d.Name)
			case !validUnit(d.Unit):
				return nil, fmt.Errorf("benchmark definition: metric %s has bad unit %q", d.Name, d.Unit)
			case d.Better != "lower" && d.Better != "higher":
				return nil, fmt.Errorf("benchmark definition: metric %s has direction %q", d.Name, d.Better)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range raw.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			return nil, fmt.Errorf("benchmark definition: end-to-end metric %s has bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(raw.EndToEnd) == 0 || len(raw.PerLayer) == 0 {
		return nil, fmt.Errorf("benchmark definition lists no end-to-end or no per-layer metrics")
	}
	return &benchSpec{endToEnd: raw.EndToEnd, perLayer: raw.PerLayer}, nil
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(b)
}
