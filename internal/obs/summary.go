package obs

// Aggregated views of an observer: the portable Metrics structure attached
// to run.Report, and the plain-text summary table hetsim prints under
// -metrics.

import (
	"fmt"

	"repro/internal/stats"
)

// PhaseMetric aggregates every span of one (track, phase) pair.
type PhaseMetric struct {
	Track string `json:"track"`
	Phase string `json:"phase"`
	// Shards is the track's shard count; Spans the number of recorded
	// spans (≈ rounds × shards for a phase every shard runs each round).
	Shards int `json:"shards"`
	Spans  int `json:"spans"`
	// TotalSec sums the spans' wall-clock durations across all shards;
	// MeanSec and MaxSec are per-span.
	TotalSec float64 `json:"total_seconds"`
	MeanSec  float64 `json:"mean_seconds"`
	MaxSec   float64 `json:"max_seconds"`
}

// GaugeMetric summarizes one gauge's sampled series.
type GaugeMetric struct {
	Track   string `json:"track"`
	Name    string `json:"name"`
	Samples int    `json:"samples"`
	Last    int64  `json:"last"`
	Min     int64  `json:"min"`
	Max     int64  `json:"max"`
}

// Metrics is the aggregate instrumentation of one or more tracks: the
// Metrics section of run.Report. Phases appear in (track, phase) order,
// gauges in registration order, so the structure is stable for goldens.
type Metrics struct {
	Phases []PhaseMetric `json:"phases,omitempty"`
	Gauges []GaugeMetric `json:"gauges,omitempty"`
}

// Metrics aggregates every track of the observer. Nil-safe: a nil observer
// returns nil.
func (o *Observer) Metrics() *Metrics { return o.MetricsSince(0) }

// MetricsSince aggregates the tracks registered at or after the given Mark,
// which is how a shared observer's tracks are attributed to one run.
func (o *Observer) MetricsSince(mark int) *Metrics {
	tracks := o.snapshotTracks(mark)
	if tracks == nil {
		return nil
	}
	m := &Metrics{}
	for _, t := range tracks {
		var agg [phaseCount]struct {
			n          int
			total, max float64
		}
		for _, sp := range t.Spans() {
			a := &agg[sp.Phase]
			a.n++
			d := sp.Dur.Seconds()
			a.total += d
			if d > a.max {
				a.max = d
			}
		}
		for p := Phase(0); p < phaseCount; p++ {
			a := agg[p]
			if a.n == 0 {
				continue
			}
			m.Phases = append(m.Phases, PhaseMetric{
				Track:    t.name,
				Phase:    p.String(),
				Shards:   len(t.arenas),
				Spans:    a.n,
				TotalSec: a.total,
				MeanSec:  a.total / float64(a.n),
				MaxSec:   a.max,
			})
		}
		t.mu.Lock()
		gauges := append([]*Gauge(nil), t.gauges...)
		t.mu.Unlock()
		for _, g := range gauges {
			samples := g.snapshot()
			if len(samples) == 0 {
				continue
			}
			gm := GaugeMetric{
				Track:   t.name,
				Name:    g.name,
				Samples: len(samples),
				Last:    samples[len(samples)-1].Value,
				Min:     samples[0].Value,
				Max:     samples[0].Value,
			}
			for _, s := range samples[1:] {
				if s.Value < gm.Min {
					gm.Min = s.Value
				}
				if s.Value > gm.Max {
					gm.Max = s.Value
				}
			}
			m.Gauges = append(m.Gauges, gm)
		}
	}
	return m
}

// Summary renders the observer's metrics as the repository's plain-text
// table shape: one phase-timing table and one gauge table, concatenated.
func (o *Observer) Summary() string {
	m := o.Metrics()
	if m == nil {
		return ""
	}
	pt := stats.NewTable("Instrumentation — phase wall-clock totals (all shards)",
		"track", "phase", "shards", "spans", "total s", "mean s", "max s")
	for _, p := range m.Phases {
		pt.AddRow(p.Track, p.Phase, fmt.Sprint(p.Shards), fmt.Sprint(p.Spans),
			fmt.Sprintf("%.4f", p.TotalSec), fmt.Sprintf("%.6f", p.MeanSec),
			fmt.Sprintf("%.6f", p.MaxSec))
	}
	gt := stats.NewTable("Instrumentation — per-round gauges",
		"track", "gauge", "samples", "last", "min", "max")
	for _, g := range m.Gauges {
		gt.AddRow(g.Track, g.Name, fmt.Sprint(g.Samples),
			fmt.Sprint(g.Last), fmt.Sprint(g.Min), fmt.Sprint(g.Max))
	}
	return pt.Render() + "\n" + gt.Render()
}
