package relstore

import (
	"errors"
	"sync"
	"testing"
)

// TestCrossPartitionFKProbeSeesUpdatedRow: an insert on partition 0 whose
// foreign key names a row on partition 1 probes that row lock-free while
// partition 1's writer keeps updating it. Every probe must find the row
// live — an update replaces its version but never leaves it missing.
// The run is a fixed number of inserts, not a fixed duration.
func TestCrossPartitionFKProbeSeesUpdatedRow(t *testing.T) {
	const inserts = 200000
	s := NewStoreN(2)
	for _, ts := range []TableSchema{
		{Name: "workflow", Columns: []Column{{Name: "status", Type: Int}}},
		{
			Name:        "job",
			Columns:     []Column{{Name: "wf_id", Type: Int}},
			ForeignKeys: []ForeignKey{{Column: "wf_id", RefTable: "workflow", RefColumn: "id"}},
		},
	} {
		if err := s.CreateTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	wfID, err := s.Writer(1).Insert("workflow", Row{"status": int64(0)})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := s.Writer(1)
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Update("workflow", wfID, Row{"status": i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	w := s.Writer(0)
	fkErrs := 0
	for i := 0; i < inserts; i++ {
		_, err := w.Insert("job", Row{"wf_id": wfID})
		var fe *FKError
		switch {
		case errors.As(err, &fe):
			fkErrs++
		case err != nil:
			t.Fatal(err)
		}
	}
	if fkErrs != 0 {
		t.Fatalf("%d of %d inserts rejected: the FK probe missed a live, concurrently updated row", fkErrs, inserts)
	}
}
