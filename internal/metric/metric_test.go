package metric

import (
	"testing"

	"vectordb/internal/topk"
)

func TestRecall(t *testing.T) {
	truth := []topk.Result{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	got := []topk.Result{{ID: 2}, {ID: 4}, {ID: 9}, {ID: 10}}
	if r := Recall(truth, got); r != 0.5 {
		t.Fatalf("Recall = %v, want 0.5", r)
	}
	if r := Recall(nil, got); r != 1 {
		t.Fatalf("Recall(empty truth) = %v, want 1", r)
	}
	if r := Recall(truth, nil); r != 0 {
		t.Fatalf("Recall(empty got) = %v, want 0", r)
	}
}

func TestMeanRecall(t *testing.T) {
	truth := [][]topk.Result{{{ID: 1}}, {{ID: 2}}}
	got := [][]topk.Result{{{ID: 1}}, {{ID: 3}}}
	if r := MeanRecall(truth, got); r != 0.5 {
		t.Fatalf("MeanRecall = %v, want 0.5", r)
	}
	if r := MeanRecall(nil, nil); r != 1 {
		t.Fatalf("MeanRecall(empty) = %v, want 1", r)
	}
}
