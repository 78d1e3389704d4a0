package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): per-shard, per-op latency histograms as
// <prefix>_op_latency_ns{shard,op}, then every registered gauge and
// counter, then the trace-ring depth.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	histName := r.prefix + "_op_latency_ns"
	fmt.Fprintf(bw, "# HELP %s Engine operation latency (ns; virtual time in simulation, wall clock over TCP). put/get/del time every request; on the wall clock a section (lookup, alloc, crc, bg_*, clean_*, ...) is sampled: every traced request, and 1 in 64 of each kind per shard.\n", histName)
	fmt.Fprintf(bw, "# TYPE %s histogram\n", histName)
	for sh := 0; sh < r.shards; sh++ {
		for op, name := range r.opNames {
			h := r.Hist(sh, op)
			if h.Count() == 0 {
				continue
			}
			s := h.Snapshot()
			var cum uint64
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < numFinite {
					le = strconv.FormatUint(bucketBounds[i], 10)
				}
				fmt.Fprintf(bw, "%s_bucket{shard=\"%d\",op=\"%s\",le=\"%s\"} %d\n", histName, sh, name, le, cum)
			}
			fmt.Fprintf(bw, "%s_sum{shard=\"%d\",op=\"%s\"} %d\n", histName, sh, name, s.SumNS)
			fmt.Fprintf(bw, "%s_count{shard=\"%d\",op=\"%s\"} %d\n", histName, sh, name, s.Count)
		}
	}
	r.mu.Lock()
	gauges, counters := r.gauges, r.counters
	r.mu.Unlock()
	writeMetrics(bw, "gauge", gauges)
	writeMetrics(bw, "counter", counters)
	fmt.Fprintf(bw, "# HELP %s_trace_events_total Structured trace events appended to the ring.\n", r.prefix)
	fmt.Fprintf(bw, "# TYPE %s_trace_events_total counter\n", r.prefix)
	fmt.Fprintf(bw, "%s_trace_events_total %d\n", r.prefix, r.ring.Total())
	return bw.Flush()
}

// writeMetrics renders gauges or counters grouped by name, so each metric
// family gets exactly one HELP/TYPE header.
func writeMetrics(w io.Writer, typ string, ms []metric) {
	done := make(map[string]bool, len(ms))
	for _, lead := range ms {
		if done[lead.name] {
			continue
		}
		done[lead.name] = true
		if lead.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", lead.name, lead.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", lead.name, typ)
		for _, m := range ms {
			if m.name != lead.name {
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", m.name, formatLabels(m.labels),
				strconv.FormatFloat(m.fn(), 'g', -1, 64))
		}
	}
}

func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, k := range sortedLabelKeys(labels) {
		if i > 0 {
			out += ","
		}
		out += k + "=\"" + escapeLabel(labels[k]) + "\""
	}
	return out + "}"
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline must be escaped; every
// other byte passes through. Instance names and file paths routinely
// reach labels, so this is not hypothetical.
func escapeLabel(v string) string {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			var b strings.Builder
			b.Grow(len(v) + 4)
			b.WriteString(v[:i])
			for ; i < len(v); i++ {
				switch v[i] {
				case '\\':
					b.WriteString(`\\`)
				case '"':
					b.WriteString(`\"`)
				case '\n':
					b.WriteString(`\n`)
				default:
					b.WriteByte(v[i])
				}
			}
			return b.String()
		}
	}
	return v
}

// Handler serves the registry over HTTP:
//
//	/metrics      Prometheus text format
//	/debug/vars   the full Snapshot as JSON
//	/debug/trace  the trace ring as a JSON event array, oldest first
//	/debug/pprof  the standard Go profiling endpoints
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(r.ring.Dump())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
