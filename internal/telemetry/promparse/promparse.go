// Package promparse parses Prometheus 0.0.4 text exposition into a
// flat series-name → value map. It is the shared client-side half of
// internal/telemetry's exposition: tpltop scrapes registries this
// package's server side rendered, so anything
// unparseable is a bug worth surfacing, not a case to skip.
package promparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses Prometheus text exposition into a series-name → value
// map. Series names keep their label sets verbatim ("name{k=\"v\"}");
// comment and blank lines are skipped; malformed lines are an error.
func Parse(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space outside braces —
		// label values may themselves contain spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln+1, line)
		}
		name, val := line[:i], line[i+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value %q: %v", ln+1, val, err)
		}
		out[name] = f
	}
	return out, nil
}

// Family strips the label block from a series name ("a{b=\"c\"}" →
// "a").
func Family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Label extracts one label's value from a series name, or "" when the
// label is absent.
func Label(name, key string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	rest := name[i+1 : len(name)-1]
	for _, kv := range splitLabels(rest) {
		j := strings.IndexByte(kv, '=')
		if j < 0 {
			continue
		}
		if kv[:j] == key {
			v := kv[j+1:]
			if unq, err := strconv.Unquote(v); err == nil {
				return unq
			}
			return v
		}
	}
	return ""
}

// splitLabels splits a label block body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
