#!/usr/bin/env python3
"""Unit tests for tools/analyze/ (stdlib unittest, registered in ctest).

Covers the tokenizer's nasty corners (raw strings, line continuations,
comment nesting rules, digit separators), one positive + one negative
case per analyzer, and the waiver/stale-waiver machinery. The mutation
fixtures under fixtures/ are exercised end-to-end by
`run.py --self-test`; these tests pin the component behaviors those
fixtures rely on.
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from analyze import annotations, atomics, cxx, layering, lock_order, repo
from analyze.findings import WaiverSet, apply_waivers, stale_waiver_findings
from analyze.findings import Finding


class LexTest(unittest.TestCase):
    def test_line_comment_blanked(self):
        lx = cxx.lex("int a; // trailing note\nint b;\n")
        self.assertIn("int a;", lx.code)
        self.assertNotIn("trailing", lx.code)
        self.assertTrue(any("trailing" in c.text for c in lx.comments))

    def test_block_comment_does_not_nest(self):
        # /* /* */ closes at the first */ — `int x;` after it is code.
        lx = cxx.lex("/* outer /* inner */ int x;\n")
        self.assertIn("int x;", lx.code)
        self.assertNotIn("outer", lx.code)

    def test_block_comment_preserves_line_numbers(self):
        lx = cxx.lex("/* one\ntwo\nthree */ int y;\n")
        self.assertEqual(lx.code.count("\n"), 3)
        self.assertIn("int y;", lx.code.splitlines()[2])

    def test_string_contents_blanked_but_quotes_kept(self):
        lx = cxx.lex('auto s = "a // not a comment"; int z;\n')
        self.assertNotIn("not a comment", lx.code)
        self.assertIn("int z;", lx.code)
        self.assertEqual(lx.code.count('"'), 2)

    def test_raw_string_with_tricky_delimiter(self):
        src = 'auto r = R"x(quote " and )" inside)x"; int w;\n'
        lx = cxx.lex(src)
        self.assertNotIn("inside", lx.code)
        self.assertIn("int w;", lx.code)

    def test_raw_string_prefixes(self):
        for prefix in ("u8R", "uR", "UR", "LR"):
            src = f'auto r = {prefix}"(body // text)"; int k;\n'
            lx = cxx.lex(src)
            self.assertNotIn("body", lx.code, prefix)
            self.assertIn("int k;", lx.code, prefix)

    def test_line_continuation_extends_comment(self):
        src = "// comment continues \\\nstill comment\nint real;\n"
        lx = cxx.lex(src)
        self.assertNotIn("still comment", lx.code)
        self.assertIn("int real;", lx.code)

    def test_digit_separator_is_not_char_literal(self):
        lx = cxx.lex("int big = 1'000'000; int after;\n")
        self.assertIn("int after;", lx.code)

    def test_char_literal_with_escape(self):
        lx = cxx.lex("char c = '\\''; int tail;\n")
        self.assertIn("int tail;", lx.code)

    def test_comment_lines(self):
        lx = cxx.lex("int a;\n// note\nint b; /* note */\n")
        self.assertEqual(lx.comment_lines(), {2, 3})


class TokenTest(unittest.TestCase):
    def test_scope_resolution_is_one_token(self):
        toks = cxx.tokens("std::mutex m;")
        self.assertIn("::", [t.value for t in toks if t.kind == "punct"])

    def test_token_lines(self):
        toks = cxx.tokens("int a;\nint b;\n")
        self.assertEqual([t.line for t in toks if t.value in ("a", "b")],
                         [1, 2])


def _mkrepo(tree):
    """Materialize {relpath: content} into a temp repo and scan it."""
    tmp = tempfile.mkdtemp(prefix="analyze_test_")
    for rel, content in tree.items():
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(content))
    return repo.Repo(tmp)


class LayeringTest(unittest.TestCase):
    def test_upward_include_flagged(self):
        r = _mkrepo({
            "src/util/base.h": "#pragma once\n",
            "src/sched/queue.h": '#pragma once\n#include "util/base.h"\n',
            "src/runtime/pool.h": '#pragma once\n#include "sched/queue.h"\n',
        })
        rules = [f for f in layering.run(r) if "include" in f.message]
        self.assertTrue(any(f.path == "src/runtime/pool.h" for f in rules))

    def test_declared_edge_clean(self):
        r = _mkrepo({
            "src/util/base.h": "#pragma once\n",
            "src/sched/queue.h": '#pragma once\n#include "util/base.h"\n',
        })
        self.assertEqual([f for f in layering.run(r)
                          if f.rule == "layering"
                          and "stale" not in f.message], [])

    def test_commented_out_include_ignored(self):
        r = _mkrepo({
            "src/sched/queue.h": "#pragma once\n",
            "src/runtime/pool.h":
                '#pragma once\n// #include "sched/queue.h"\n',
        })
        rules = [f for f in layering.run(r) if "include" in f.message]
        self.assertEqual(rules, [])

    def test_header_cycle_flagged(self):
        r = _mkrepo({
            "src/util/a.h": '#pragma once\n#include "util/b.h"\n',
            "src/util/b.h": '#pragma once\n#include "util/a.h"\n',
        })
        cyc = [f for f in layering.run(r) if "cycle" in f.message]
        self.assertTrue(cyc)

    @staticmethod
    def _stale_modules(r):
        return [f for f in layering.run(r) if "stale layering module" in
                f.message]

    @staticmethod
    def _declared_tree(skip=()):
        declared = set(layering.ALLOWED).union(*layering.ALLOWED.values())
        return {f"src/{m}/x.h": "#pragma once\n"
                for m in sorted(declared) if m not in skip}

    def test_stale_module_flagged(self):
        r = _mkrepo(self._declared_tree(skip=("perf",)))
        stale = self._stale_modules(r)
        self.assertEqual(len(stale), 1)
        self.assertIn("`perf`", stale[0].message)
        self.assertEqual(stale[0].path, layering.DAG_FILE)

    def test_every_declared_module_present_clean(self):
        r = _mkrepo(self._declared_tree())
        self.assertEqual(self._stale_modules(r), [])


class LockOrderTest(unittest.TestCase):
    INVERTED = {
        "src/sched/ab.cpp": """
            void fa() {
              SpinGuard ga(a_lock);
              SpinGuard gb(b_lock);
            }
            void fb() {
              SpinGuard gb(b_lock);
              SpinGuard ga(a_lock);
            }
        """,
    }

    def test_inversion_flagged(self):
        findings = lock_order.run(_mkrepo(self.INVERTED))
        self.assertTrue(any(f.rule == "lock-order" and "cycle" in f.message
                            for f in findings))

    def test_consistent_order_clean(self):
        r = _mkrepo({
            "src/sched/ab.cpp": """
                void fa() {
                  SpinGuard ga(a_lock);
                  SpinGuard gb(b_lock);
                }
                void fb() {
                  SpinGuard ga(a_lock);
                  SpinGuard gb(b_lock);
                }
            """,
        })
        self.assertEqual([f for f in lock_order.run(r)
                          if "cycle" in f.message], [])

    def test_self_reacquisition_flagged(self):
        r = _mkrepo({
            "src/sched/self.cpp": """
                void f() {
                  SpinGuard g1(lock_);
                  SpinGuard g2(lock_);
                }
            """,
        })
        self.assertTrue(any("re-acquis" in f.message
                            for f in lock_order.run(r)))


class AtomicsTest(unittest.TestCase):
    def test_uncommented_order_flagged(self):
        r = _mkrepo({
            "src/sched/flag.h": """
                #pragma once
                #include <atomic>
                struct F {
                  std::atomic<bool> ready{false};
                  void set() {
                    ready.store(true, std::memory_order_release);
                  }
                };
            """,
        })
        self.assertTrue(any(f.rule == "atomic-order"
                            for f in atomics.run(r)))

    def test_commented_order_clean(self):
        r = _mkrepo({
            "src/sched/flag.h": """
                #pragma once
                #include <atomic>
                struct F {
                  std::atomic<bool> ready{false};
                  std::atomic<bool> seen{false};
                  void set() {
                    // Release: publishes init to the acquire load below.
                    ready.store(true, std::memory_order_release);
                  }
                  bool get() {
                    // Acquire: pairs with the release store in set().
                    return ready.load(std::memory_order_acquire);
                  }
                };
            """,
        })
        findings = atomics.run(r)
        self.assertEqual([f for f in findings if f.rule == "atomic-order"],
                         [])

    def test_defaulted_seqcst_in_hot_module_flagged(self):
        r = _mkrepo({
            "src/sched/ctr.h": """
                #pragma once
                #include <atomic>
                struct C {
                  std::atomic<int> n{0};
                  int read() { return n.load(); }
                };
            """,
        })
        self.assertTrue(any(f.rule == "atomic-seqcst"
                            for f in atomics.run(r)))

    def test_release_without_acquire_flagged(self):
        r = _mkrepo({
            "src/sched/pair.h": """
                #pragma once
                #include <atomic>
                struct P {
                  std::atomic<int> v{0};
                  void w() {
                    // Release: publish (nothing acquires — bug).
                    v.store(1, std::memory_order_release);
                  }
                  int r() {
                    // Relaxed read.
                    return v.load(std::memory_order_relaxed);
                  }
                };
            """,
        })
        self.assertTrue(any(f.rule == "atomic-pairing"
                            for f in atomics.run(r)))

    def test_same_member_name_in_two_classes_keyed_apart(self):
        # B's acq_rel write must not pair A's acquire load.
        r = _mkrepo({
            "src/runtime/a.h": """
                #pragma once
                #include <atomic>
                class A {
                  void add();
                  bool empty();
                  std::atomic<int> live_{0};
                };
            """,
            "src/runtime/a.cpp": """
                #include "runtime/a.h"
                void A::add() {
                  // Relaxed: counter.
                  live_.fetch_add(1, std::memory_order_relaxed);
                }
                bool A::empty() {
                  // Acquire: unpaired.
                  return live_.load(std::memory_order_acquire) == 0;
                }
            """,
            "src/runtime/b.h": """
                #pragma once
                #include <atomic>
                struct B {
                  std::atomic<int> live_{0};
                  void done() {
                    // Acq_rel: publishes to idle().
                    live_.fetch_sub(1, std::memory_order_acq_rel);
                  }
                  bool idle() {
                    // Acquire: pairs with done().
                    return live_.load(std::memory_order_acquire) == 0;
                  }
                };
            """,
        })
        pairing = [f for f in atomics.run(r) if f.rule == "atomic-pairing"]
        self.assertEqual([(f.path, "A::live_" in f.message) for f in pairing],
                         [("src/runtime/a.cpp", True)])


class AnnotationsTest(unittest.TestCase):
    def test_unannotated_field_flagged(self):
        r = _mkrepo({
            "src/sched/state.h": """
                #pragma once
                struct Q {
                  Spinlock lock;
                  long generation = 0;
                };
            """,
        })
        self.assertTrue(any(f.rule == "guarded-by"
                            for f in annotations.run(r)))

    def test_annotated_and_confined_clean(self):
        r = _mkrepo({
            "src/sched/state.h": """
                #pragma once
                struct Q {
                  Spinlock lock;
                  long generation SBS_GUARDED_BY(lock) = 0;
                  int epoch SBS_INIT_ONLY = 0;
                  int scratch SBS_CONFINED(owner worker) = 0;
                };
            """,
        })
        self.assertEqual(annotations.run(r), [])

    def test_lockless_class_skipped(self):
        r = _mkrepo({
            "src/sched/plain.h": """
                #pragma once
                struct Plain {
                  long counter = 0;
                };
            """,
        })
        self.assertEqual(annotations.run(r), [])


class WaiverTest(unittest.TestCase):
    def test_waiver_consumption_and_staleness(self):
        ws = WaiverSet([
            "x; // lint:allow(layering)",
            "y; // lint:allow(atomic-order)",
        ])
        findings = [Finding("f.h", 1, "layering", "m")]
        kept = apply_waivers(findings, {"f.h": ws})
        self.assertEqual(kept, [])
        stale = stale_waiver_findings({"f.h": ws})
        self.assertEqual([(f.line, "atomic-order" in f.message)
                          for f in stale], [(2, True)])

    def test_foreign_rules_ignored(self):
        ws = WaiverSet(["z; // lint:allow(raw-simd)"])  # lint.py's rule
        self.assertEqual(stale_waiver_findings({"f.h": ws}), [])


if __name__ == "__main__":
    unittest.main()
