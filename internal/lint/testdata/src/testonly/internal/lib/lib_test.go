package lib

import "testing"

// The tests are the only references Plain, Allowed and Twin.Used have; the
// analyzer does not load this file.
func TestTestOnlyCallers(t *testing.T) {
	if Plain()+Allowed()+(Twin{}).Used() != 12 {
		t.Fatal("fixture values changed")
	}
}
