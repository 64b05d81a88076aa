package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 || (Config{TestSet: 1}).TestSet != 1 {
		t.Fail()
	}
}
