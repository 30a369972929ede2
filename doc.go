// Package crn is a Go implementation of "Contention Resolution for Coded
// Radio Networks" (Bender, Gilbert, Kuhn, Kuszmaul, Médard — SPAA 2022,
// arXiv:2207.11824).
//
// The package provides:
//
//   - the Coded Radio Network Model: a slotted channel whose base station
//     decodes up to κ simultaneous transmissions via linear coding, with
//     decoding events defined exactly as in the paper's Definition 1;
//   - a pluggable channel-medium layer (internal/medium): the coded
//     channel, the classical collision channel with selectable
//     collision-detection feedback (none / binary / ternary), and a
//     jam-composing wrapper, all behind one allocation-free interface so
//     every protocol runs on every channel model;
//   - the Decodable Backoff Algorithm, the paper's contention-resolution
//     protocol achieving throughput 1 − Θ(1/ln κ);
//   - the classical baselines the paper compares against (binary
//     exponential backoff, slotted ALOHA, Chang–Jin–Pettie multiplicative
//     weights) — runnable on the channel they were designed for;
//   - adversarial and stochastic arrival processes, including the
//     sliding-window rate cap from the paper's theorems;
//   - a first-class adversary layer (internal/adversary): oblivious,
//     duty-cycled, and adaptive feedback-reactive jammers plus a
//     (σ,ρ)-bounded front-loading arrival adversary, composable into any
//     run via Config.Adversary and swept as a grid axis;
//   - a deterministic discrete-round simulation engine with a parallel
//     multi-trial runner;
//   - a slot-synchronized real-network emulation engine (internal/emu,
//     cmd/crnemu): stations as goroutines or OS processes speaking a
//     framed wire protocol over in-proc or reliable-UDP transports,
//     byte-identical to the simulator over a lossless link;
//   - a declarative scenario-sweep subsystem (internal/sweep) that
//     expands model × protocol × arrival × κ × rate × jammer × adversary
//     grids and executes every cell's trials in parallel;
//   - physical-layer substrates (GF(2^8) random linear network coding and
//     a ZigZag-style additive-collision decoder) grounding the model.
//
// # Quick start
//
//	proto := crn.NewDecodableBackoff(64, 1)      // κ = 64, seed 1
//	res := crn.Run(crn.Config{Kappa: 64, Horizon: 1, Drain: true, Seed: 2},
//	    proto, crn.NewBatch(10000))
//	fmt.Printf("throughput: %.3f\n", res.CompletionThroughput())
//
// # Channel models
//
// Config.Medium selects the channel model a run uses; nil picks the
// paper's coded channel.  A channel model is named by the
// medium-descriptor grammar shared by every command's -model/-models
// flag and by sweep specs:
//
//	coded[:K[/W]] | classical[:none|binary|ternary] | capture[:K]
//
// ParseMedium parses a descriptor into a MediumSpec; MediumSpec.String
// round-trips the canonical form and MediumSpec.Build constructs the
// medium.  The classical collision channel runs the baselines on the
// model they were designed for, with the collision-detection feedback
// variants the classical literature distinguishes:
//
//	spec, _ := crn.ParseMedium("classical:ternary")
//	med, _ := spec.Build(0, 0)
//	res := crn.Run(crn.Config{Horizon: 1, Drain: true, Seed: 2, Medium: med},
//	    crn.NewExponentialBackoff(1), crn.NewBatch(1000))
//
// Jamming is a run property, not a channel model: set Config.Adversary
// and the engine composes it over the medium.
//
// # Real-network emulation
//
// RunEmulation runs a scenario with every station a separate goroutine
// (or, via cmd/crnemu's -listen/-join, a separate OS process),
// synchronized slot by slot over a framed wire protocol — in-proc
// pipes, or real UDP under a reliable retransmitting layer with
// optional fault injection (EmuFault). Over a lossless transport the
// emulation's Result is byte-identical to the simulator's; see
// DESIGN.md §11:
//
//	res, err := crn.RunEmulation(ctx, crn.EmuConfig{
//	    Protocol: "dba", Kappa: 8,
//	    Arrival: "batch", BatchN: 2000, Horizon: 1, Drain: true,
//	    Seed: 1, Stations: 4, Transport: "udp",
//	})
//
// The long-running entry points — RunSweep, RunSweepWorker,
// AssembleSweep, RunEmulation — take a context.Context; cancellation
// lands between trials, cells, or slots, and completed sweep cells stay
// cached.
//
// # Scenario sweeps
//
// cmd/crnsweep runs whole grids of scenarios in parallel and emits
// per-cell aggregates (throughput, max backlog, latency quantiles,
// slot-class mix, error epochs) as aligned tables, CSV, and JSON:
//
//	crnsweep -protocols dba,beb -kappas 8,64 -rates 0.3,0.6 -trials 4
//	crnsweep -models coded,classical -protocols dba,beb,mw
//	crnsweep -spec sweep.json -json - -quiet
//	crnsweep -spec bench_spec.json -bench BENCH_sweep.json
//
// The JSON artifact is {"spec": ..., "cells": [...]} with cells in
// canonical expansion order and per-metric {mean, stddev, min, max}
// aggregates.  Artifacts are deterministic: the same spec and seed
// reproduce byte-identical bytes at any parallelism, so sweep results
// (and the BENCH_sweep.json benchmark artifact) are diffable across
// commits.
//
// Sweep execution is also cacheable and resumable (DESIGN.md §6.2):
// -cache-dir/-resume persist completed cells as content-addressed
// records so an interrupted sweep re-executes only what is missing.
// The same machinery is exported here as RunSweep and OpenSweepCache.
//
// Distributed execution generalizes the cache into a shared store
// (DESIGN.md §6.3): cmd/crnserve serves a cell directory over HTTP, any
// number of crnsweep -worker processes drain the grid by claiming cells
// under advisory TTL leases, and -assemble reads the byte-identical
// grid back.  -worker -shard k/N restricts a worker to a balanced slice
// of the grid, so machines with stores of their own can split it and
// have their records copied together before -assemble.  cmd/crnquery
// lists, filters, and diffs the resulting cells across runs and
// commits.  Exported here as SweepBackend, SweepShard, RunSweepWorker,
// AssembleSweep, NewSweepHTTPBackend, and NewSweepHTTPServer.
//
// cmd/experiments accepts -parallel to run the E1–E16
// reproduction harness concurrently and -json for the same
// machine-readable treatment; cmd/crnbench times the engine itself
// across a deterministic perf grid into BENCH_engine.json.
//
// See the examples directory for runnable programs and DESIGN.md for the
// system inventory and the §5 experiment index.
package crn
