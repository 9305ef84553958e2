package obs

import "testing"

type testGroup[C, G any] struct {
	Hits  C `json:"hits"`
	Fills C `json:"fills"`
	Bytes G `json:"bytes"`
}

func TestReadTakesEachCellIntoItsField(t *testing.T) {
	var live testGroup[Counter, Gauge]
	live.Hits.Inc()
	live.Fills.Add(2)
	live.Bytes.Add(-3)
	if got, want := Read[testGroup[uint64, int64]](&live), (testGroup[uint64, int64]{1, 2, -3}); got != want {
		t.Errorf("Read = %+v, want %+v", got, want)
	}
}

func TestReadRefusesAnotherShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a struct of other fields read as a snapshot")
		}
	}()
	var live testGroup[Counter, Gauge]
	Read[struct{ Hits, Bytes, Fills uint64 }](&live)
}
