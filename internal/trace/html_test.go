package trace

import (
	"strings"
	"testing"
)

func TestWriteHTMLGantt(t *testing.T) {
	var sb strings.Builder
	if err := WriteHTMLGantt(&sb, sampleTimeline(), "demo <run>"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<!DOCTYPE html>", "demo &lt;run&gt;", "<svg", "cpu:p1", "#ee854a", "</html>"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML output missing %q", want)
		}
	}
	// One rect per op.
	if got := strings.Count(out, "<rect"); got != 3 {
		t.Errorf("rect count = %d, want 3", got)
	}
}
