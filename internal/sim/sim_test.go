package sim

import "testing"

func TestScaleNames(t *testing.T) {
	for _, sc := range []Scale{ScaleQuick, ScalePaper} {
		parsed, err := ParseScale(sc.String())
		if err != nil || parsed != sc {
			t.Fatalf("round-trip of %v failed: %v %v", sc, parsed, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("accepted unknown scale")
	}
	if got := Scale(9).String(); got != "scale(9)" {
		t.Errorf("String = %q", got)
	}
}
