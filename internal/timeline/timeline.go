// Package timeline renders simulator traces as per-rank swimlanes,
// visualizing how a collective operation's phases overlap: sender CPU
// serialization, parallel wire transfers and receiver processing — the
// structure the LMO model separates and the traditional models
// conflate. It reads the message spans simnet emits to its observer
// (DESIGN §9): send [SentAt, InjectedAt] on the source's track, wire
// [InjectedAt, ArrivedAt] and recv [ArrivedAt, recv-done] on the
// destination's. Each span holds one phase of one message, so the
// phases need no pairing.
package timeline

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// Lane markers, by priority (later overwrite earlier).
const (
	markIdle = ' '
	markWire = '~' // message in flight toward this rank
	markRecv = 'r' // delivered, waiting for / being processed by the receiver
	markSend = 'S' // sender CPU busy processing an outgoing message
)

// Render draws the swimlanes for nRanks ranks over a width-character
// time axis that ends at the last delivery or receive. Markers: 'S'
// sender CPU busy, '~' message in flight toward the rank, 'r'
// delivered-to-processed on the receiver.
func Render(spans []obs.Span, nRanks, width int) string {
	if width < 20 {
		width = 20
	}
	var end time.Duration
	for _, sp := range spans {
		if sp.Cat == obs.CatMessage && (sp.Name == "wire" || sp.Name == "recv") && sp.End > end {
			end = sp.End
		}
	}
	if end == 0 {
		return "(no traffic)\n"
	}

	lanes := make([][]byte, nRanks)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(string(markIdle), width))
	}
	col := func(t time.Duration) int {
		c := int(float64(t) / float64(end) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	paint := func(lane int, from, to time.Duration, mark byte) {
		if lane < 0 || lane >= nRanks {
			return
		}
		a, b := col(from), col(to)
		for c := a; c <= b; c++ {
			if precedence(mark) >= precedence(lanes[lane][c]) {
				lanes[lane][c] = mark
			}
		}
	}
	for _, sp := range spans {
		if sp.Cat != obs.CatMessage {
			continue
		}
		switch sp.Name {
		case "send":
			paint(sp.Src, sp.Start, sp.End, markSend)
		case "wire":
			paint(sp.Dst, sp.Start, sp.End, markWire)
		case "recv":
			paint(sp.Dst, sp.Start, sp.End, markRecv)
		}
	}

	var b strings.Builder
	for i, lane := range lanes {
		fmt.Fprintf(&b, "rank %2d |%s|\n", i, lane)
	}
	fmt.Fprintf(&b, "         0%s%v\n", strings.Repeat(" ", width-len(end.String())), end)
	b.WriteString("         S=send CPU  ~=in flight  r=deliver→processed\n")
	return b.String()
}

func precedence(mark byte) int {
	switch mark {
	case markSend:
		return 3
	case markRecv:
		return 2
	case markWire:
		return 1
	default:
		return 0
	}
}

// Log renders the message lifecycle as one line per step, in time
// order: send-start and inject from each send span (inject marked ESC
// when the escalation point simnet emits right after the span
// follows), deliver from each wire span and recv-done from each recv
// span. Spans carry no emission order within one instant, so the
// lines of each instant are sorted by text, which makes the log
// canonical.
func Log(spans []obs.Span) []string {
	type step struct {
		at   time.Duration
		line string
	}
	var steps []step
	add := func(at time.Duration, kind string, sp obs.Span, esc string) {
		steps = append(steps, step{at, fmt.Sprintf("%12v %-10s %2d→%-2d %dB%s", at, kind, sp.Src, sp.Dst, sp.Bytes, esc)})
	}
	for i, sp := range spans {
		if sp.Cat != obs.CatMessage {
			continue
		}
		switch sp.Name {
		case "send":
			esc := ""
			if i+1 < len(spans) && spans[i+1].Cat == obs.CatFault && spans[i+1].Name == "escalation" {
				esc = " ESC"
			}
			add(sp.Start, "send-start", sp, "")
			add(sp.End, "inject", sp, esc)
		case "wire":
			add(sp.End, "deliver", sp, "")
		case "recv":
			add(sp.End, "recv-done", sp, "")
		}
	}
	slices.SortFunc(steps, func(a, b step) int {
		return cmp.Or(cmp.Compare(a.at, b.at), strings.Compare(a.line, b.line))
	})
	lines := make([]string, len(steps))
	for i, s := range steps {
		lines[i] = s.line
	}
	return lines
}
