// Command perfbench is the repository benchmark. It drives the analyzer
// through its public API the way a user pays for it, checks every result
// against the corpus ground truth, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// # Workloads
//
// Each workload is a closed loop: a client sends its next scan only after
// the previous one answered. Inputs are generated from --seed; the engine
// sees only the generated inputs, and its own training seed is fixed. A few
// warm-up scans, checked but not measured, precede the measured loop.
//
//   - cold-large (1 client): each scan writes a never-seen
//     corpus.LargeApp(seed+i, 120, 40) tree to disk outside the timed
//     region, then times core.LoadDir, Engine.AnalyzeScan with no store and
//     report.WriteJSON. This is the CLI user's first scan: the front end, IR
//     lowering, fused taint and the GC do nearly all the work, and only 18
//     candidates reach symptoms and ML. No scan repeats a tree, so a cache
//     spanning projects cannot pass as a cold win. Like a new CLI process,
//     each scan runs on a fresh engine (derived from the trained one with
//     Engine.WithWeapons) and starts on a collected heap.
//   - warm-edit (1 client): set-up fills a disk result store with a cold
//     scan of a fixed 1,200-file LargeApp. Each scan appends a unique
//     comment to one seeded-random file, then times core.LoadMapIncremental,
//     AnalyzeScan with the store and WriteJSON. This is the rescan after an
//     edit: planning, fingerprints, merge and store I/O do the work, and
//     only one file is re-parsed and re-analysed.
//   - wapd-webapps (2 clients): a server.Server with two workers behind
//     httptest.NewServer on loopback TCP. Each scan is a synchronous
//     POST /scan uploading the next of the paper's 54 corpus.WebAppSuite
//     packages, in a seeded order, and reads the whole response. Every
//     package is checked, and every full pass must total Table VI (413
//     detected, 104 FPP, 18 FP). Many small projects with dense
//     candidates, so HTTP and JSON costs, symptom extraction and the ML
//     ensemble are a large share; the store is never touched.
//
// # End-to-end metrics (--trace 0)
//
// scan_p50_ms and scan_p90_ms (latency of one scan), scans_per_s (correct
// scans per second of client busy time, which excludes the benchmark's own
// input preparation and checks), alloc_mb_per_scan (runtime/metrics
// /gc/heap/allocs:bytes inside the timed scans; with two clients, over the
// whole loop, so the clients' decoding of responses is included),
// peak_heap_mb (highest /gc/heap/live:bytes sampled), correct_share
// (scans that passed every check, over scans attempted; a never-zero
// stand-in for the failed share, whose count is the result's "failed") and
// setup_s (median of several complete set-ups: engine training, corpus
// generation, and the cold store fill or server start).
//
// # Per-layer metrics (--trace 1)
//
// A traced run traces one scan of each consecutive pair, at least 100 of
// each kind, and reports the difference of their medians as trace.overhead_share.
// Traced scans time the calls each scan already makes (load, AnalyzeScan,
// WriteJSON, the POST, and the result store's Get and Put through a timing
// Backend wrapper), and read Report.Stats and the server's queue and
// analysis times. After the loop, the layers that run inside AnalyzeScan
// are replayed on the same inputs, call by call: lexer.Tokens,
// parser.Parse, ir.LowerFile, symptom.Extractor.Extract and
// ml.Ensemble.Predict. Every value is per scan unless its name says it is a
// ratio or share.
//
// Each result line is preceded by a machine line (CPU model, GOMAXPROCS,
// nproc, Go version); results are only comparable under the same machine.
package main
