package cluster

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cynthia/internal/model"
)

// FuzzDecodeJobRequest: an arbitrary POST body never panics the decoder,
// a body over maxRequestBody is never accepted and an over-limit read is
// 413, and an accepted body names one of the shared Table 1 workloads
// (pointer identity) with a goal that validates.
func FuzzDecodeJobRequest(f *testing.F) {
	const obj = `{"workload":"mnist DNN","deadline_sec":3600,"loss_target":0.2}`
	for _, seed := range []string{
		obj,
		obj + "\n",
		obj + "garbage",
		obj + `{"workload":"VGG-19"}`,
		obj + "}",
		`{"workload":"cifar10 DNN","deadline_sec":5400,"loss_target":0.8}`,
		`{"workload":"ResNet-32","deadline_sec":NaN,"loss_target":0.6}`,
		`{"workload":"VGG-19","deadline_sec":1e309,"loss_target":0.6}`,
		`{"workload":"VGG-19","deadline_sec":-1,"loss_target":0.6}`,
		`{"workload":"mnist DNN","deadline_sec":3600,"loss_target":0.2,"gpus":4}`,
		`{"workload":"AlexNet","deadline_sec":3600,"loss_target":0.2}`,
		`{"workload":" ","deadline_sec":3600,"loss_target":0.2}`,
		`{"workload":"` + strings.Repeat("x", maxRequestBody) + `"}`,
		obj + strings.Repeat(" ", maxRequestBody),
		``,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/plan", bytes.NewReader(body))
		w, goal, err := decodeJobRequest(rec, req)
		if err != nil {
			var tooLarge *http.MaxBytesError
			overLimit := errors.As(err, &tooLarge)
			if overLimit && len(body) <= maxRequestBody {
				t.Fatalf("%d-byte body hit the %d-byte limit: %v", len(body), maxRequestBody, err)
			}
			want := http.StatusBadRequest
			if overLimit {
				want = http.StatusRequestEntityTooLarge
			}
			if got := decodeStatus(err); got != want {
				t.Fatalf("rejected body maps to %d, want %d: %v", got, want, err)
			}
			return
		}
		if len(body) > maxRequestBody {
			t.Fatalf("accepted a %d-byte body over the %d-byte limit", len(body), maxRequestBody)
		}
		shared := false
		for _, tw := range model.Workloads() {
			shared = shared || tw == w
		}
		if !shared {
			t.Fatalf("accepted workload %p (%s) is not one of the shared Table 1 workloads", w, w.Name)
		}
		if verr := goal.Validate(); verr != nil {
			t.Fatalf("accepted goal %+v fails Validate: %v", goal, verr)
		}
	})
}
