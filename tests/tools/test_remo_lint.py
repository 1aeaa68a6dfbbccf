#!/usr/bin/env python3
"""Self-test fixtures for tools/remo_lint.py.

Each rule gets a known-bad snippet (must be flagged) and a known-good
twin (must pass), plus coverage of the suppression mechanics. Run by the
`lint.self_test` ctest entry and the CI lint job; a lint change that
silently stops catching a class of bug fails here first.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import remo_lint  # noqa: E402


def lint_snippet(code: str, relpath: str = "planner/snippet.cpp"):
    """Lint `code` as if it lived at src/<relpath>; returns rule names."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "src" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")
        violations = remo_lint.lint_file(path, Path("src") / relpath)
    return [(v.rule, v.line) for v in violations]


def rules_of(code: str, relpath: str = "planner/snippet.cpp"):
    return [r for r, _ in lint_snippet(code, relpath)]


class UnorderedIterationTest(unittest.TestCase):
    BAD = """
        #include <unordered_set>
        void f() {
          std::unordered_set<int> suspects;
          for (int s : suspects) use(s);
        }
    """

    def test_flags_range_for_over_unordered(self):
        self.assertIn("unordered-iteration", rules_of(self.BAD))

    def test_lookup_only_is_fine(self):
        good = """
            #include <unordered_set>
            void f() {
              std::unordered_set<int> suspects;
              if (suspects.count(3) != 0) act();
            }
        """
        self.assertNotIn("unordered-iteration", rules_of(good))

    def test_sorted_vector_iteration_is_fine(self):
        good = """
            void f() {
              std::vector<int> suspects;
              for (int s : suspects) use(s);
            }
        """
        self.assertNotIn("unordered-iteration", rules_of(good))

    def test_nested_template_args_resolve_declared_name(self):
        bad = """
            void f() {
              std::unordered_map<int, std::vector<std::pair<int, int>>> adj;
              for (auto& kv : adj) use(kv);
            }
        """
        self.assertIn("unordered-iteration", rules_of(bad))

    def test_rule_scoped_to_order_sensitive_dirs(self):
        # Hash iteration outside the order-sensitive paths (e.g. the stream
        # application's operator tables) is allowed.
        self.assertNotIn("unordered-iteration",
                         rules_of(self.BAD, relpath="streamapp/snippet.cpp"))

    def test_recovery_loop_paths_are_order_sensitive(self):
        # The liveness tracker's event order drives repair and replanning
        # in the core facade; hash iteration in src/collector and src/core
        # is flagged.
        self.assertIn("unordered-iteration",
                      rules_of(self.BAD, relpath="collector/snippet.cpp"))
        self.assertIn("unordered-iteration",
                      rules_of(self.BAD, relpath="core/snippet.cpp"))
        good = """
            void end_epoch() {
              std::vector<int> nodes;
              for (int n : nodes) use(n);
            }
        """
        self.assertNotIn("unordered-iteration",
                         rules_of(good, relpath="collector/snippet.cpp"))

    def test_service_daemon_paths_are_order_sensitive(self):
        # ISSUE 8 satellite: the daemon's wire stream, snapshot images, and
        # drain order underwrite the daemon-vs-batch bit-identity property;
        # hash iteration in src/service is flagged.
        self.assertIn("unordered-iteration",
                      rules_of(self.BAD, relpath="service/snippet.cpp"))
        good = """
            void emit() {
              std::map<int, double> latest;
              for (auto& kv : latest) use(kv);
            }
        """
        self.assertNotIn("unordered-iteration",
                         rules_of(good, relpath="service/snippet.cpp"))

    def test_federation_routing_paths_are_order_sensitive(self):
        # ISSUE 6 satellite: shard assignment and subtask ordering must be
        # bit-deterministic; hash iteration in src/federation is flagged.
        self.assertIn("unordered-iteration",
                      rules_of(self.BAD, relpath="federation/snippet.cpp"))
        good = """
            void route() {
              std::vector<int> shards;
              for (int s : shards) use(s);
            }
        """
        self.assertNotIn("unordered-iteration",
                         rules_of(good, relpath="federation/snippet.cpp"))


class RawRandomTest(unittest.TestCase):
    def test_flags_std_rand(self):
        self.assertIn("raw-random", rules_of("int x = std::rand();"))

    def test_flags_srand_time(self):
        self.assertIn("raw-random", rules_of("srand(time(nullptr));"))

    def test_rng_header_is_fine(self):
        good = """
            #include "common/rng.h"
            void f() { Rng rng(42); auto x = rng.next(); }
        """
        self.assertEqual(rules_of(good), [])

    def test_identifiers_containing_rand_are_fine(self):
        self.assertEqual(rules_of("int operand = opera.nd(); int x = grand(1);"), [])


class NakedAssertTest(unittest.TestCase):
    def test_flags_assert_call(self):
        self.assertIn("naked-assert", rules_of("void f(int n) { assert(n > 0); }"))

    def test_flags_cassert_include(self):
        self.assertIn("naked-assert", rules_of("#include <cassert>"))

    def test_static_assert_is_fine(self):
        self.assertEqual(rules_of("static_assert(sizeof(int) == 4);"), [])

    def test_remo_assert_is_fine(self):
        good = 'void f(int n) { REMO_ASSERT(n > 0, "n=", n); REMO_DCHECK(n < 9); }'
        self.assertEqual(rules_of(good), [])

    def test_comment_mentions_are_fine(self):
        self.assertEqual(rules_of("// callers assert(ownership) elsewhere"), [])


class SpanStoreTest(unittest.TestCase):
    def test_flags_auto_binding(self):
        bad = "void f() { const auto local = tree.local_counts(n); }"
        self.assertIn("span-store", rules_of(bad))

    def test_flags_span_typed_binding(self):
        bad = "std::span<const std::uint32_t> s = tree.in_counts(n);"
        self.assertIn("span-store", rules_of(bad))

    def test_same_statement_consumption_is_fine(self):
        good = "auto v = vec(tree.in_counts(n));"
        # `vec(...)` copies; the temporary view dies inside the statement.
        self.assertEqual(rules_of(good), [])

    def test_vector_copy_is_fine(self):
        good = "std::vector<std::uint32_t> v(tree.local_counts(n).begin(), tree.local_counts(n).end());"
        self.assertEqual(rules_of(good), [])


class HotAllocTest(unittest.TestCase):
    def test_flags_new_in_hot_function(self):
        bad = """
            // REMO_HOT: inner loop of the build.
            void walk() {
              auto* scratch = new int[64];
              use(scratch);
            }
        """
        self.assertIn("hot-alloc", rules_of(bad))

    def test_flags_malloc_in_hot_function(self):
        bad = """
            // REMO_HOT
            void walk() { void* p = malloc(64); }
        """
        self.assertIn("hot-alloc", rules_of(bad))

    def test_allocation_outside_hot_function_is_fine(self):
        good = """
            void setup() { auto p = std::make_unique<int>(1); }
            // REMO_HOT
            void walk() { use(); }
            void teardown() { auto* q = new int(2); delete q; }
        """
        self.assertEqual(rules_of(good), [])

    def test_word_new_in_comment_is_fine(self):
        good = """
            // REMO_HOT
            void walk() {
              // appends the new parent to the scratch ring
              use();
            }
        """
        self.assertEqual(rules_of(good), [])


class HotSlotLookupTest(unittest.TestCase):
    def test_flags_slot_of_in_hot_function(self):
        bad = """
            // REMO_HOT: per-hop feasibility on the ancestor chain.
            bool walk(NodeId id) {
              for (Slot q = slot_of(id); q != kNoSlot; q = parent_[q]) use(q);
              return true;
            }
        """
        self.assertIn("hot-slot-lookup", rules_of(bad))

    def test_slot_resolution_outside_hot_function_is_fine(self):
        good = """
            bool prepare(NodeId id) { return slot_of(id) != kNoSlot; }
            // REMO_HOT
            void walk(Slot q) {
              while (q != kNoSlot) q = parent_[q];
            }
        """
        self.assertEqual(rules_of(good), [])

    def test_comment_mention_is_fine(self):
        good = """
            // REMO_HOT
            void walk(Slot q) {
              // callers resolved slot_of(id) before entering the loop
              use(q);
            }
        """
        self.assertEqual(rules_of(good), [])

    def test_allow_with_reason_waives(self):
        code = """
            // REMO_HOT
            bool walk(NodeId id) {
              // remo-lint: allow(hot-slot-lookup) one lookup at entry, not per hop
              const Slot q = slot_of(id);
              return q != kNoSlot;
            }
        """
        self.assertEqual(rules_of(code), [])


class RawMutexTest(unittest.TestCase):
    def test_flags_std_mutex_member(self):
        bad = "class Q { mutable std::mutex mutex_; };"
        self.assertIn("raw-mutex", rules_of(bad))

    def test_flags_lock_guard_and_unique_lock(self):
        self.assertIn("raw-mutex",
                      rules_of("std::lock_guard<std::mutex> lock(mutex_);"))
        self.assertIn("raw-mutex",
                      rules_of("std::unique_lock<std::mutex> lock(mutex_);"))

    def test_flags_condition_variable(self):
        self.assertIn("raw-mutex", rules_of("std::condition_variable wake_;"))

    def test_applies_outside_order_sensitive_dirs_too(self):
        # The wrapper mandate covers all of src/ (any raw mutex is a hole
        # in the TSA proof), not just the plan-determinism dirs.
        self.assertIn("raw-mutex",
                      rules_of("std::mutex m;", relpath="collector/snippet.cpp"))

    def test_remo_wrappers_are_fine(self):
        good = """
            #include "common/mutex.h"
            class Q {
              void f() { MutexLock lock(mutex_); ++x_; }
              mutable Mutex mutex_;
              int x_ REMO_GUARDED_BY(mutex_) = 0;
            };
        """
        self.assertEqual(rules_of(good), [])

    def test_allow_with_reason_waives(self):
        code = """
            // remo-lint: allow(raw-mutex) interop with a C library callback
            std::mutex legacy_handle_lock;
        """
        self.assertEqual(rules_of(code), [])


class UnannotatedMutexTest(unittest.TestCase):
    def test_flags_mutex_with_no_guarded_field(self):
        bad = """
            class Q {
              mutable Mutex mutex_;
              int x_ = 0;
            };
        """
        self.assertIn("unannotated-mutex", rules_of(bad))

    def test_guarded_by_anywhere_in_file_satisfies(self):
        good = """
            class Q {
              mutable Mutex mutex_;
              int x_ REMO_GUARDED_BY(mutex_) = 0;
            };
        """
        self.assertEqual(rules_of(good), [])

    def test_pt_guarded_by_also_satisfies(self):
        good = """
            class Q {
              Mutex mu_;
              int* p_ REMO_PT_GUARDED_BY(mu_) = nullptr;
            };
        """
        self.assertEqual(rules_of(good), [])

    def test_reference_member_is_not_a_declaration(self):
        # MutexLock holds `Mutex& mu_;` — a borrowed capability, not a new
        # one; only owning declarations need a guarded field.
        self.assertEqual(rules_of("class L { Mutex& mu_; };"), [])

    def test_allow_with_reason_waives(self):
        code = """
            class Q {
              // remo-lint: allow(unannotated-mutex) pure signaling: pairs
              Mutex wake_mutex_;
            };
        """
        self.assertEqual(rules_of(code), [])


class NakedThreadTest(unittest.TestCase):
    def test_flags_std_thread_member(self):
        self.assertIn("naked-thread",
                      rules_of("std::vector<std::thread> workers_;"))

    def test_flags_detach(self):
        self.assertIn("naked-thread", rules_of("worker.detach();"))

    def test_hardware_concurrency_is_fine(self):
        good = "auto n = std::thread::hardware_concurrency();"
        self.assertEqual(rules_of(good), [])

    def test_this_thread_is_fine(self):
        good = "std::this_thread::sleep_for(std::chrono::seconds(1));"
        self.assertEqual(rules_of(good), [])

    def test_allow_with_reason_waives(self):
        code = """
            // remo-lint: allow(naked-thread) pool workers, joined in dtor
            threads_.emplace_back([this] { worker_loop(); });
            // remo-lint: allow(naked-thread) pool-owned storage
            std::vector<std::thread> threads_;
        """
        self.assertEqual(rules_of(code), [])


class NondetSourceTest(unittest.TestCase):
    def test_flags_system_clock_in_planner(self):
        bad = "auto now = std::chrono::system_clock::now();"
        self.assertIn("nondet-source", rules_of(bad))

    def test_flags_thread_local_in_planner(self):
        bad = "thread_local double best_score = 0.0;"
        self.assertIn("nondet-source", rules_of(bad))

    def test_flags_libc_clock_call(self):
        self.assertIn("nondet-source", rules_of("double t = clock();"))

    def test_steady_clock_duration_measurement_is_fine(self):
        good = "const auto start = std::chrono::steady_clock::now();"
        self.assertEqual(rules_of(good), [])

    def test_scoped_to_order_sensitive_dirs(self):
        # obs/ legitimately keeps a thread_local span stack; the stream
        # application may read wall clocks — neither feeds plan scores.
        ok = "thread_local std::vector<LiveSpan> t_live_spans;"
        self.assertNotIn("nondet-source", rules_of(ok, relpath="obs/snippet.cpp"))
        self.assertNotIn("nondet-source",
                         rules_of("auto t = std::chrono::system_clock::now();",
                                  relpath="streamapp/snippet.cpp"))

    def test_allow_with_reason_waives(self):
        code = """
            // remo-lint: allow(nondet-source) log stamp only, not plan input
            auto wall = std::chrono::system_clock::now();
        """
        self.assertEqual(rules_of(code), [])


class SuppressionTest(unittest.TestCase):
    def test_allow_with_reason_waives_line_below(self):
        code = """
            // remo-lint: allow(span-store) read-only, tree is const here
            const auto local = tree.local_counts(n);
        """
        self.assertEqual(rules_of(code), [])

    def test_allow_with_reason_waives_same_line(self):
        code = ("const auto local = tree.local_counts(n);"
                "  // remo-lint: allow(span-store) consumed this statement group")
        self.assertEqual(rules_of(code), [])

    def test_reasonless_allow_is_itself_flagged(self):
        code = """
            // remo-lint: allow(span-store)
            const auto local = tree.local_counts(n);
        """
        rules = rules_of(code)
        self.assertIn("suppression", rules)
        self.assertIn("span-store", rules)  # the waiver did not take effect

    def test_allow_is_per_rule(self):
        code = """
            // remo-lint: allow(naked-assert) migration staged in next PR
            const auto local = tree.local_counts(n);
        """
        self.assertIn("span-store", rules_of(code))


class CommentAndStringStrippingTest(unittest.TestCase):
    def test_block_comments_are_ignored(self):
        code = """
            /* for (int s : suspects) — historical note
               assert(false) std::rand() */
            void f() {}
        """
        self.assertEqual(rules_of(code), [])

    def test_string_literals_are_ignored(self):
        code = 'const char* msg = "assert(x) failed near std::rand()";'
        self.assertEqual(rules_of(code), [])

    def test_line_numbers_survive_stripping(self):
        code = "// line one\n\nint x = std::rand();\n"
        self.assertEqual(lint_snippet(code), [("raw-random", 3)])


class CliTest(unittest.TestCase):
    def test_exit_zero_on_clean_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            src.mkdir()
            (src / "ok.cpp").write_text("void f() {}\n", encoding="utf-8")
            self.assertEqual(remo_lint.run([str(src)]), 0)

    def test_exit_one_on_violation(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            src.mkdir()
            (src / "bad.cpp").write_text("int x = std::rand();\n", encoding="utf-8")
            self.assertEqual(remo_lint.run([str(src)]), 1)

    def test_exit_two_on_missing_path(self):
        self.assertEqual(remo_lint.run(["/nonexistent/remo-lint-path"]), 2)


if __name__ == "__main__":
    unittest.main()
