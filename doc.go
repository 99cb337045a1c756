// Package netdesign reproduces "Enforcing efficient equilibria in network
// design games via subsidies" (Augustine, Caragiannis, Fanelli, Kalaitzis;
// SPAA 2012) as a complete Go library.
//
// Start with internal/core for the public API (compute minimum subsidies,
// enforce trees within the 1/e bound, design budgeted networks, verify
// equilibria), DESIGN.md for the system inventory and per-experiment
// index, and EXPERIMENTS.md for the measured reproduction of every
// theorem and figure. The top-level bench_test.go regenerates each paper
// artifact under `go test -bench=.`; `go run ./cmd/experiments` prints
// the full table suite.
//
// For interactive or service use, cmd/sned runs the solvers as a
// long-lived HTTP/JSON daemon:
//
//	go run ./cmd/sned -addr :8533
//	curl -d '{"instance": "nodes 3\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\nroot 0\n"}' \
//	    http://localhost:8533/v1/sne
//
// POST /v1/check, /v1/sne, /v1/snd and /v1/pos accept instances in the
// CLI text format; GET /healthz and /metrics cover operations. Responses
// are bit-identical to the sne/snd batch CLIs, and streams of nearby
// instances are re-solved warm from the basis of the pooled solver chain
// that last held their exact structure (DESIGN.md §9).
package netdesign
