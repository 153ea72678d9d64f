/**
 * @file
 * Test suite for the qismet-lint rule engine.
 *
 * Two layers: focused unit tests running each rule against small inline
 * snippets (both firing and deliberately-close non-firing shapes), and
 * fixture tests running the full engine over the known-bad / known-good
 * files in fixtures/ (path injected as QISMET_LINT_FIXTURE_DIR).
 */

#include "lint_rules.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

namespace {

using qlint::Finding;
using qlint::lintFile;
using qlint::lintSource;
using qlint_test::countRule;
using qlint_test::fixture;
using qlint_test::fixtureSource;
using qlint_test::lintFixture;
using qlint_test::ruleFindings;

// ---- rule registry -------------------------------------------------------

TEST(LintRegistry, AllTwelveRulesRegistered)
{
    const auto &rules = qlint::allRules();
    ASSERT_EQ(rules.size(), 12u);
    for (const char *rule :
         {"ambient-rng", "unordered-reduction", "raw-thread",
          "raw-file-write", "naked-new", "split-in-task",
          "dense-matrix-in-loop", "stream-offset", "unbounded-retry",
          "stream-lineage", "lock-order", "durability-ordering"}) {
        EXPECT_NE(std::find(rules.begin(), rules.end(), rule), rules.end())
            << rule;
    }
}

TEST(LintRegistry, LintablePaths)
{
    EXPECT_TRUE(qlint::isLintablePath("src/a.cpp"));
    EXPECT_TRUE(qlint::isLintablePath("src/a.hpp"));
    EXPECT_TRUE(qlint::isLintablePath("src/a.h"));
    EXPECT_TRUE(qlint::isLintablePath("src/a.cc"));
    EXPECT_FALSE(qlint::isLintablePath("CMakeLists.txt"));
    EXPECT_FALSE(qlint::isLintablePath("README.md"));
}

// ---- ambient-rng ---------------------------------------------------------

TEST(AmbientRng, FiresOnStdRandAndSrand)
{
    EXPECT_EQ(countRule("src/x.cpp", "int f() { return std::rand(); }",
                        "ambient-rng"),
              1);
    EXPECT_EQ(countRule("src/x.cpp", "void f() { srand(7); }", "ambient-rng"),
              1);
}

TEST(AmbientRng, FiresOnRandomDevice)
{
    EXPECT_EQ(countRule("src/x.cpp", "std::random_device rd;", "ambient-rng"),
              1);
}

TEST(AmbientRng, FiresOnTimeSeeding)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "std::mt19937 gen(std::chrono::steady_clock::now()"
                        ".time_since_epoch().count());",
                        "ambient-rng"),
              1);
    EXPECT_EQ(countRule("src/x.cpp", "engine.seed(time(nullptr));",
                        "ambient-rng"),
              1);
}

TEST(AmbientRng, AllowedInsideRngImplementation)
{
    // The one blessed home for entropy plumbing.
    EXPECT_EQ(countRule("src/common/rng.cpp",
                        "std::random_device rd; (void)rd;", "ambient-rng"),
              0);
}

TEST(AmbientRng, IgnoresMembersAndDeclarationsNamedRand)
{
    EXPECT_EQ(countRule("src/x.cpp", "double v = dist.rand();",
                        "ambient-rng"),
              0);
    EXPECT_EQ(countRule("src/x.cpp", "double rand() { return 0.0; }",
                        "ambient-rng"),
              0);
    // `return rand()` is a real call even though `return` precedes it.
    EXPECT_EQ(countRule("src/x.cpp", "int f() { return rand(); }",
                        "ambient-rng"),
              1);
}

TEST(AmbientRng, IgnoresTimingWithoutSeeding)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "auto t0 = std::chrono::steady_clock::now();",
                        "ambient-rng"),
              0);
}

// ---- unordered-reduction -------------------------------------------------

TEST(UnorderedReduction, FiresOnRangeForAccumulation)
{
    const char *src = R"(
        double f(const std::unordered_map<std::string, double> &m) {
            double total = 0.0;
            for (const auto &kv : m) total += kv.second;
            return total;
        })";
    EXPECT_EQ(countRule("src/x.cpp", src, "unordered-reduction"), 1);
}

TEST(UnorderedReduction, FiresOnStdAccumulate)
{
    const char *src = R"(
        std::unordered_set<int> ids;
        double f() {
            return std::accumulate(ids.begin(), ids.end(), 0.0);
        })";
    EXPECT_EQ(countRule("src/x.cpp", src, "unordered-reduction"), 1);
}

TEST(UnorderedReduction, IgnoresOrderedContainers)
{
    const char *src = R"(
        double f(const std::map<std::string, double> &m,
                 const std::vector<double> &v) {
            double total = std::accumulate(v.begin(), v.end(), 0.0);
            for (const auto &kv : m) total += kv.second;
            return total;
        })";
    EXPECT_EQ(countRule("src/x.cpp", src, "unordered-reduction"), 0);
}

TEST(UnorderedReduction, IgnoresNonReducingIteration)
{
    const char *src = R"(
        bool f(const std::unordered_map<int, int> &m) {
            for (const auto &kv : m)
                if (kv.second < 0) return true;
            return false;
        })";
    EXPECT_EQ(countRule("src/x.cpp", src, "unordered-reduction"), 0);
}

// ---- raw-thread ----------------------------------------------------------

TEST(RawThread, FiresOnThreadJthreadAsync)
{
    EXPECT_EQ(countRule("src/x.cpp", "std::thread t([]{}); t.join();",
                        "raw-thread"),
              1);
    EXPECT_EQ(countRule("src/x.cpp", "std::jthread t([]{});", "raw-thread"),
              1);
    EXPECT_EQ(countRule("src/x.cpp",
                        "auto f = std::async(std::launch::async, []{});",
                        "raw-thread"),
              1);
}

TEST(RawThread, AllowedInsideThreadPool)
{
    EXPECT_EQ(countRule("src/common/thread_pool.cpp",
                        "workers_.emplace_back(std::thread([]{}));",
                        "raw-thread"),
              0);
    EXPECT_EQ(countRule("src/common/thread_pool.hpp",
                        "std::vector<std::thread> workers_;", "raw-thread"),
              0);
}

TEST(RawThread, IgnoresThisThreadAndHeaders)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "std::this_thread::sleep_for(delay); "
                        "#include <thread>",
                        "raw-thread"),
              0);
}

// ---- raw-file-write ------------------------------------------------------

TEST(RawFileWrite, FiresOnWritableStreamsUnderSrc)
{
    EXPECT_EQ(countRule("src/x.cpp", "std::ofstream out(\"a.csv\");",
                        "raw-file-write"),
              1);
    EXPECT_EQ(countRule("src/x.cpp", "std::fstream rw(\"a.bin\");",
                        "raw-file-write"),
              1);
    EXPECT_EQ(countRule("/root/repo/src/x.cpp",
                        "std::ofstream out(\"a.csv\");", "raw-file-write"),
              1);
}

TEST(RawFileWrite, FiresOnCStdioOpens)
{
    EXPECT_EQ(countRule("src/x.cpp", "FILE *f = fopen(\"a\", \"w\");",
                        "raw-file-write"),
              1);
    EXPECT_EQ(countRule("src/x.cpp",
                        "std::freopen(\"a\", \"a\", stdout);",
                        "raw-file-write"),
              1);
}

TEST(RawFileWrite, IgnoresReadsIncludesAndMembers)
{
    // std::ifstream cannot tear a file.
    EXPECT_EQ(countRule("src/x.cpp", "std::ifstream in(\"a.csv\");",
                        "raw-file-write"),
              0);
    // The include itself is unqualified; only std:: usages fire.
    EXPECT_EQ(countRule("src/x.cpp", "#include <fstream>\nint x;",
                        "raw-file-write"),
              0);
    // Member functions that happen to share a name are not C stdio.
    EXPECT_EQ(countRule("src/x.cpp", "archive.fopen(path);",
                        "raw-file-write"),
              0);
}

TEST(RawFileWrite, ScopedToSrcTreeOnly)
{
    // Tests, benches and tools write scratch files directly — some
    // (journal fuzzers) write torn files on purpose.
    for (const char *path : {"tests/persist/test_journal.cpp",
                             "bench/bench_sweep.cpp",
                             "tools/qismet-lint/lint_rules.cpp"}) {
        EXPECT_EQ(countRule(path, "std::ofstream out(\"a\"); fopen(\"b\", "
                                  "\"w\");",
                            "raw-file-write"),
                  0)
            << path;
    }
}

TEST(RawFileWrite, AllowedInsideAtomicFileLayer)
{
    EXPECT_EQ(countRule("src/common/atomic_file.cpp",
                        "std::ofstream out(tmp);", "raw-file-write"),
              0);
    EXPECT_EQ(countRule("src/common/atomic_file.hpp",
                        "FILE *f = fopen(tmp, \"w\");", "raw-file-write"),
              0);
}

TEST(RawFileWrite, EscapeSuppressesFinding)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "std::ofstream out(p); // qismet-lint: "
                        "allow(raw-file-write)",
                        "raw-file-write"),
              0);
}

TEST(RawFileWrite, FixtureFiresUnderSyntheticSrcPath)
{
    const auto findings = lintSource("src/persist/bad_raw_file_write.cpp",
                                     fixtureSource("bad_raw_file_write.cpp"));
    const auto hits = ruleFindings(findings, "raw-file-write");
    EXPECT_EQ(hits.size(), 4u);
    for (const Finding &f : hits) {
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
    // Outside src/ (the fixture's real path) the rule stays silent.
    EXPECT_TRUE(lintFile(fixture("bad_raw_file_write.cpp")).empty());
}

// ---- naked-new -----------------------------------------------------------

TEST(NakedNew, FiresOnNewAndDelete)
{
    EXPECT_EQ(countRule("src/x.cpp", "int *p = new int(3);", "naked-new"),
              1);
    EXPECT_EQ(countRule("src/x.cpp", "delete p;", "naked-new"), 1);
    EXPECT_EQ(countRule("src/x.cpp", "delete[] arr;", "naked-new"), 1);
}

TEST(NakedNew, IgnoresDeletedFunctionsAndComments)
{
    EXPECT_EQ(countRule("src/x.cpp", "Foo(const Foo &) = delete;",
                        "naked-new"),
              0);
    EXPECT_EQ(countRule("src/x.cpp",
                        "// the new engine replaced delete-heavy code\n"
                        "const char *s = \"new delete\";",
                        "naked-new"),
              0);
}

// ---- split-in-task -------------------------------------------------------

TEST(SplitInTask, FiresInsideDispatchLambdas)
{
    const char *inParallelFor = R"(
        exec.parallelFor(n, [&](std::size_t i) {
            Rng task = rng.splitAt(i);
            out[i] = task.uniform();
        });)";
    EXPECT_EQ(countRule("src/x.cpp", inParallelFor, "split-in-task"), 1);

    const char *inSubmit = R"(
        pool.submit([&] { use(rng.split()); });)";
    EXPECT_EQ(countRule("src/x.cpp", inSubmit, "split-in-task"), 1);

    const char *inMap = R"(
        auto v = exec.map<double>(8, [&](std::size_t i) {
            return rng.splitAt(i).uniform();
        });)";
    EXPECT_EQ(countRule("src/x.cpp", inMap, "split-in-task"), 1);
}

TEST(SplitInTask, IgnoresSplitBeforeDispatch)
{
    const char *src = R"(
        std::vector<Rng> streams;
        for (std::size_t i = 0; i < n; ++i)
            streams.push_back(rng.splitAt(i));
        exec.parallelFor(n, [&](std::size_t i) {
            out[i] = streams[i].uniform();
        });)";
    EXPECT_EQ(countRule("src/x.cpp", src, "split-in-task"), 0);
}

TEST(SplitInTask, IgnoresSplitInDispatchArgumentPosition)
{
    // Evaluated on the dispatching thread before the task runs: fine.
    const char *src = "pool.submit(makeTask(rng.splitAt(3)));";
    EXPECT_EQ(countRule("src/x.cpp", src, "split-in-task"), 0);
}

// ---- suppression escapes -------------------------------------------------

TEST(Suppression, SameLineEscape)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "int v = std::rand(); // qismet-lint: "
                        "allow(ambient-rng)",
                        "ambient-rng"),
              0);
}

TEST(Suppression, LineAboveEscape)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "// qismet-lint: allow(naked-new)\n"
                        "int *p = new int(1);",
                        "naked-new"),
              0);
}

TEST(Suppression, FileWideEscape)
{
    EXPECT_EQ(countRule("src/x.cpp",
                        "// qismet-lint: allow-file(raw-thread)\n"
                        "std::thread a([]{});\n"
                        "std::thread b([]{});",
                        "raw-thread"),
              0);
}

TEST(Suppression, EscapeIsRuleSpecific)
{
    // An escape for one rule must not silence another on the same line.
    EXPECT_EQ(countRule("src/x.cpp",
                        "int *p = new int(std::rand()); // qismet-lint: "
                        "allow(naked-new)",
                        "ambient-rng"),
              1);
}

// ---- dense-matrix-in-loop ------------------------------------------------

TEST(DenseMatrixInLoop, FiresInsideForAndWhileBodies)
{
    const std::string src = R"(
        void f(const std::vector<Gate> &gates) {
            for (const Gate &g : gates) {
                auto m = g.matrix();
            }
            std::size_t s = 0;
            while (s < 8) {
                apply(gate.matrix());
                ++s;
            }
        }
    )";
    EXPECT_EQ(countRule("src/sim/statevector.cpp", src,
                        "dense-matrix-in-loop"),
              2);
}

TEST(DenseMatrixInLoop, FiresInSingleStatementBody)
{
    const std::string src = R"(
        void f(const std::vector<Gate> &gates) {
            for (const Gate &g : gates)
                apply(g.matrix());
        }
    )";
    EXPECT_EQ(countRule("src/vqe/energy_estimator.cpp", src,
                        "dense-matrix-in-loop"),
              1);
}

TEST(DenseMatrixInLoop, SilentOutsideLoopBodies)
{
    const std::string src = R"(
        void f(const Gate &gate) {
            const auto m = gate.matrix();
            for (std::size_t s = 0; s < 8; ++s) {
                apply(m);
            }
        }
    )";
    EXPECT_EQ(countRule("src/sim/statevector.cpp", src,
                        "dense-matrix-in-loop"),
              0);
}

TEST(DenseMatrixInLoop, SilentOutsideHotTrees)
{
    // Only src/sim and src/vqe are per-amplitude hot layers; setup code,
    // tests and benches may call matrix() freely.
    const std::string src = R"(
        void f(const std::vector<Gate> &gates) {
            for (const Gate &g : gates) {
                auto m = g.matrix();
            }
        }
    )";
    for (const char *path :
         {"src/circuit/gate.cpp", "tests/sim/test_statevector.cpp",
          "bench/bench_perf_kernels.cpp"}) {
        EXPECT_EQ(countRule(path, src, "dense-matrix-in-loop"), 0) << path;
    }
}

TEST(DenseMatrixInLoop, NonMemberAndUncalledMatrixTokensIgnored)
{
    const std::string src = R"(
        void f() {
            for (int i = 0; i < 4; ++i) {
                Matrix matrix = identity();
                auto fn = &Gate::matrix;
                use(matrix, fn);
            }
        }
    )";
    EXPECT_EQ(countRule("src/sim/kraus.cpp", src, "dense-matrix-in-loop"),
              0);
}

TEST(DenseMatrixInLoop, SuppressibleOnTheOffendingLine)
{
    const std::string src = R"(
        void f(const std::vector<Gate> &gates) {
            for (const Gate &g : gates) {
                auto m = g.matrix(); // qismet-lint: allow(dense-matrix-in-loop)
            }
        }
    )";
    EXPECT_EQ(countRule("src/sim/statevector.cpp", src,
                        "dense-matrix-in-loop"),
              0);
}

TEST(DenseMatrixInLoop, FixtureFiresUnderSyntheticSimPath)
{
    const auto findings =
        lintSource("src/sim/bad_dense_matrix_in_loop.cpp",
                   fixtureSource("bad_dense_matrix_in_loop.cpp"));
    EXPECT_EQ(findings.size(), 3u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "dense-matrix-in-loop")
            << f.file << ":" << f.line;
    }
    // Under the fixture's real path (outside src/sim) the rule is silent.
    EXPECT_TRUE(lintFile(fixture("bad_dense_matrix_in_loop.cpp")).empty());
}

// ---- stream-offset -------------------------------------------------------

TEST(StreamOffset, FiresOnSplitCallsUnderServe)
{
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng leg = rng.splitAt(jobId);", "stream-offset"),
              1);
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "Rng next = rng.split();", "stream-offset"),
              1);
}

TEST(StreamOffset, FiresOnAffineSeedArithmetic)
{
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng(spec.seed + tenantId);", "stream-offset"),
              1);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng(seed - tenantId);", "stream-offset"),
              1);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng{tenant * 1000 + run};", "stream-offset"),
              1);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "const std::uint64_t s = deriveStreamSeed(root, "
                        "StreamDomain::kServeRun, tenant * 64 + run);",
                        "stream-offset"),
              1);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng leg = rng.splitStream(StreamDomain::kServeRun, "
                        "(tenant << 20) | run);",
                        "stream-offset"),
              1);
}

TEST(StreamOffset, IgnoresAvalanchedDerivations)
{
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "b.streamSeed = deriveStreamSeed(seed, "
                        "StreamDomain::kBackend, id);",
                        "stream-offset"),
              0);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng(deriveStreamSeed(root, "
                        "StreamDomain::kServeRun, jobId));",
                        "stream-offset"),
              0);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng leg = rng.splitStream(StreamDomain::kServeRun, "
                        "jobId);",
                        "stream-offset"),
              0);
    // References, parameters and plain mentions carry no ctor args.
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "void f(Rng &rng, const Rng *other);",
                        "stream-offset"),
              0);
}

TEST(StreamOffset, ScopedToServeTreeOnly)
{
    // Pre-serve derivations keep their historical form for trace
    // stability; tests and tools are free to construct ad-hoc streams.
    const char *src = "Rng rng(seed + tenant); Rng leg = rng.splitAt(i);";
    for (const char *path :
         {"src/core/qismet_runner.cpp", "src/common/rng.cpp",
          "tests/serve/test_serve_core.cpp", "tools/serve_soak.cpp"}) {
        EXPECT_EQ(countRule(path, src, "stream-offset"), 0) << path;
    }
}

TEST(StreamOffset, SuppressibleAndIncrementTolerant)
{
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng(seed + tenant); // qismet-lint: "
                        "allow(stream-offset)",
                        "stream-offset"),
              0);
    // ++/--, -> and unary minus are not offset arithmetic.
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng(nextSeed(it->second, idx++));",
                        "stream-offset"),
              0);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "Rng rng(pick(seed, -1));", "stream-offset"),
              0);
}

TEST(StreamOffset, FixtureFiresUnderSyntheticServePath)
{
    const auto findings =
        lintSource("src/serve/bad_stream_offset.cpp",
                   fixtureSource("bad_stream_offset.cpp"));
    const auto hits = ruleFindings(findings, "stream-offset");
    EXPECT_EQ(hits.size(), 5u);
    for (const Finding &f : hits) {
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
    // Under the fixture's real path (outside src/serve) the rule — and
    // every other rule — stays silent.
    EXPECT_TRUE(lintFile(fixture("bad_stream_offset.cpp")).empty());
}

// ---- unbounded-retry -----------------------------------------------------

TEST(UnboundedRetry, FiresOnRetryLoopsWithoutAVisibleBound)
{
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "while (true) { if (send(req).ok) break; "
                        "++retryCount; }",
                        "unbounded-retry"),
              1);
    EXPECT_EQ(countRule("src/vqe/vqe_driver.cpp",
                        "while (!ok) { ok = attemptOnce(); }",
                        "unbounded-retry"),
              1);
    // The backoff shapes the delay between attempts, not their count.
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "for (;;) { if (sendWithBackoff(job)) return; }",
                        "unbounded-retry"),
              1);
}

TEST(UnboundedRetry, AcceptsComparisonBoundsInTheCondition)
{
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "while (retries < policy.maxRetries) { "
                        "if (send(req).ok) break; ++retries; }",
                        "unbounded-retry"),
              0);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "for (int attempt = 0; attempt < 5; ++attempt) { "
                        "if (send(req).ok) return; }",
                        "unbounded-retry"),
              0);
    // `<<`, `>>` and `->` are not comparisons: this one still fires.
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "while (it->active) { log << retryState(it); }",
                        "unbounded-retry"),
              1);
}

TEST(UnboundedRetry, AcceptsNamedBudgetAndBreakerChecks)
{
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "while (!done) { if (budgetRemaining(b) == 0) "
                        "break; done = retryOnce(); }",
                        "unbounded-retry"),
              0);
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "while (!done) { if (breaker.open()) break; "
                        "done = retryOnce(); }",
                        "unbounded-retry"),
              0);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "while (true) { if (attempt == deadline) break; "
                        "++attempt; }",
                        "unbounded-retry"),
              0);
}

TEST(UnboundedRetry, IgnoresRangeForLoops)
{
    // Range-for is bounded by its container even when it walks retry
    // state (the digest layer serializes rec.retryIndex this way).
    EXPECT_EQ(countRule("src/vqe/run_digest.cpp",
                        "for (const VqeJobRecord &rec : run.history) { "
                        "csv += std::to_string(rec.retryIndex); }",
                        "unbounded-retry"),
              0);
    // `::` alone does not make a three-clause for a range-for.
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "for (std::size_t i = 0; notDone(std::ref(s)); "
                        "++i) { s = attemptOnce(); }",
                        "unbounded-retry"),
              1);
}

TEST(UnboundedRetry, IgnoresLoopsWithoutRetryState)
{
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "while (!queue.empty()) { dispatch(queue.pop()); }",
                        "unbounded-retry"),
              0);
    EXPECT_EQ(countRule("src/serve/scheduler.cpp",
                        "for (;;) { if (drained()) break; step(); }",
                        "unbounded-retry"),
              0);
}

TEST(UnboundedRetry, ScopedToSrcTreeAndSuppressible)
{
    const char *src = "while (true) { ok = attemptOnce(); if (ok) break; }";
    for (const char *path :
         {"tests/serve/test_serve_core.cpp", "tools/serve_chaos.cpp",
          "bench/bench_retry.cpp"}) {
        EXPECT_EQ(countRule(path, src, "unbounded-retry"), 0) << path;
    }
    EXPECT_EQ(countRule("src/serve/backend_pool.cpp",
                        "while (true) { ok = attemptOnce(); if (ok) break; } "
                        "// qismet-lint: allow(unbounded-retry)",
                        "unbounded-retry"),
              0);
}

TEST(UnboundedRetry, FixtureFiresUnderSyntheticSrcPath)
{
    const auto findings =
        lintSource("src/serve/bad_unbounded_retry.cpp",
                   fixtureSource("bad_unbounded_retry.cpp"));
    EXPECT_EQ(findings.size(), 3u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "unbounded-retry") << f.file << ":" << f.line;
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
    // Under the fixture's real path (outside src/) every rule is silent.
    EXPECT_TRUE(lintFile(fixture("bad_unbounded_retry.cpp")).empty());
}

// ---- fixture files -------------------------------------------------------
//
// One harness for every fixture, single-file or directory (multi-TU):
// a bad fixture yields exactly the expected count, all on the target
// rule; a good fixture yields nothing. lintFixture() runs the cross-TU
// passes in addition to the per-file rules for directory cases.

struct BadFixtureCase
{
    const char *file; ///< File name, or a multi_tu/<case> directory.
    const char *rule;
    int expectedFindings;
};

// Print a case as its fixture path, so gtest lists (and ctest registers)
// it with `# GetParam() = <file>` instead of a byte dump that holds the
// addresses of the string literals and so changes from build to build.
void
PrintTo(const BadFixtureCase &c, std::ostream *os)
{
    *os << c.file;
}

class BadFixtures : public ::testing::TestWithParam<BadFixtureCase>
{
};

TEST_P(BadFixtures, EveryFindingMatchesTheTargetRule)
{
    const BadFixtureCase &param = GetParam();
    const auto findings = lintFixture(param.file);
    EXPECT_EQ(static_cast<int>(findings.size()), param.expectedFindings)
        << param.file;
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, param.rule) << f.file << ":" << f.line;
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, BadFixtures,
    ::testing::Values(
        BadFixtureCase{"bad_ambient_rng.cpp", "ambient-rng", 5},
        BadFixtureCase{"bad_unordered_reduction.cpp", "unordered-reduction",
                       3},
        BadFixtureCase{"bad_unordered_reduction_blocks.cpp",
                       "unordered-reduction", 3},
        BadFixtureCase{"bad_raw_thread.cpp", "raw-thread", 3},
        BadFixtureCase{"bad_naked_new.cpp", "naked-new", 4},
        BadFixtureCase{"bad_split_in_task.cpp", "split-in-task", 3},
        // Directory fixtures: miniature source trees exercising the
        // cross-TU passes end to end.
        BadFixtureCase{"multi_tu/sl_reuse", "stream-lineage", 1},
        BadFixtureCase{"multi_tu/lo_cycle", "lock-order", 1},
        BadFixtureCase{"multi_tu/lo_submit", "lock-order", 2},
        BadFixtureCase{"multi_tu/du_unsynced", "durability-ordering", 3}),
    [](const ::testing::TestParamInfo<BadFixtureCase> &param) {
        std::string name = param.param.file;
        name = name.substr(name.find('/') + 1);
        const std::size_t dot = name.find('.');
        if (dot != std::string::npos) {
            name = name.substr(0, dot);
        }
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

class GoodFixtures : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GoodFixtures, NoFindings)
{
    const auto findings = lintFixture(GetParam());
    EXPECT_TRUE(findings.empty())
        << findings.size() << " unexpected findings; first: "
        << (findings.empty() ? ""
                             : findings[0].file + ":" +
                                   std::to_string(findings[0].line) + " [" +
                                   findings[0].rule + "]");
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GoodFixtures,
    ::testing::Values("good_clean.cpp", "good_suppressed.cpp",
                      "multi_tu/clean_tree"),
    [](const ::testing::TestParamInfo<const char *> &param) {
        std::string name = param.param;
        name = name.substr(name.find('/') + 1);
        const std::size_t dot = name.find('.');
        if (dot != std::string::npos) {
            name = name.substr(0, dot);
        }
        return name;
    });

} // namespace
