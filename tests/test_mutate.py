from __future__ import annotations

import json
import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReferenceMutator, reference_mutate
from pin_reference_mutants import (
    PAGES,
    PINNED_FILE,
    RATIOS,
    SEEDS,
    case_key,
    digest,
    outcome,
    page_tree,
)
from strategies import labeled_trees
from treematch.mutate import (
    MUTATION_KINDS,
    DuplicateSignature,
    ExhaustedTargets,
    _content_flags,
    _FlagPool,
    _Mutator,
    assign_signatures,
    ground_truth,
    mutate,
    mutation_log_from_json,
    mutation_log_to_json,
)
from treematch.pipeline import match_trees
from treematch.similarity import SftmParams
from treematch.tokens import tokenize_node
from treematch.tree import DraftNode, LabeledTree, freeze, parse_html, serialize_tree_json


def sample_page(width: int = 4) -> LabeledTree:
    sections = []
    for k in range(width):
        sections.append(
            DraftNode(
                tag="section",
                attrs=[("id", f"sec-{k}"), ("class", "box wide")],
                children=[
                    DraftNode(tag="h2", text=f"title {k}"),
                    DraftNode(tag="p", attrs=[("class", "body text")],
                              text="some words to play with here"),
                    DraftNode(tag="a", attrs=[("href", f"/page/{k}")], text="more"),
                ],
            )
        )
    return assign_signatures(
        freeze(DraftNode(tag="html", children=[DraftNode(tag="body", children=sections)]))
    )


class TestAssignSignatures:
    def test_all_distinct(self):
        tree = sample_page()
        signatures = [n.signature for n in tree]
        assert all(signatures)
        assert len(set(signatures)) == len(tree)

    def test_idempotent(self):
        tree = sample_page()
        again = assign_signatures(tree)
        assert [n.signature for n in tree] == [n.signature for n in again]

    def test_changes_only_the_signature(self):
        bare = parse_html(b"<div id='a' class='b c'><p>one  two</p><p/><br></div>")
        signed = assign_signatures(bare)
        for before, after in zip(bare, signed, strict=True):
            assert before.signature is None
            assert after.signature == f"s{after.id:05d}"
            assert after._replace(signature=None) == before

    def test_invisible_to_tokenizer_and_matcher(self):
        bare = freeze(DraftNode(tag="div", children=[
            DraftNode(tag="p", attrs=[("class", "x")]), DraftNode(tag="b")
        ]))
        signed = assign_signatures(bare)
        for node in bare:
            assert tokenize_node(bare, node.id) == tokenize_node(signed, node.id)
        params = SftmParams(iterations=10)
        assert match_trees(bare, bare, params).pairs == match_trees(signed, signed, params).pairs


class TestMutate:
    def test_ratio_zero_is_identity(self):
        tree = sample_page()
        mutant, log = mutate(tree, 0.0, seed=7)
        assert serialize_tree_json(mutant) == serialize_tree_json(tree)
        assert log.ops == ()
        assert log.removed_signatures == frozenset()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            mutate(sample_page(), 0.6, seed=0)

    def test_unsigned_tree_rejected(self):
        bare = freeze(DraftNode(tag="a"))
        with pytest.raises(ValueError):
            mutate(bare, 0.1, seed=0)

    def test_deterministic(self):
        tree = sample_page()
        m1, log1 = mutate(tree, 0.4, seed=42)
        m2, log2 = mutate(tree, 0.4, seed=42)
        assert serialize_tree_json(m1) == serialize_tree_json(m2)
        assert mutation_log_to_json(log1) == mutation_log_to_json(log2)

    def test_different_seeds_differ(self):
        tree = sample_page()
        m1, _ = mutate(tree, 0.4, seed=1)
        m2, _ = mutate(tree, 0.4, seed=2)
        assert serialize_tree_json(m1) != serialize_tree_json(m2)

    def test_mutated_count_close_to_ratio(self):
        tree = sample_page(width=8)
        for ratio in (0.1, 0.25, 0.5):
            _, log = mutate(tree, ratio, seed=11)
            touched: set[str] = set()
            for op in log.ops:
                touched.add(op.target)
                if op.kind == "remove_node":
                    touched.update(op.detail["subtree_signatures"])
                if op.kind == "swap" and op.detail.get("partner"):
                    touched.add(op.detail["partner"])
            target = int(ratio * len(tree) + 0.5)
            assert target <= len(touched) <= target + 1

    @settings(max_examples=25, deadline=None)
    @given(labeled_trees(max_nodes=14), st.floats(0.0, 0.5), st.integers(0, 999))
    def test_signature_conservation(self, bare, ratio, seed):
        tree = assign_signatures(bare)
        mutant, log = mutate(tree, ratio, seed)
        source_sigs = {n.signature for n in tree}
        mutant_sigs = [n.signature for n in mutant if n.signature is not None]
        assert len(mutant_sigs) == len(set(mutant_sigs))  # unique on mutant side
        assert set(mutant_sigs) | log.removed_signatures == source_sigs
        assert not (set(mutant_sigs) & log.removed_signatures)

    def test_operator_coverage_across_seeds(self):
        tree = sample_page(width=6)
        seen: set[str] = set()
        for seed in range(60):
            _, log = mutate(tree, 0.5, seed=seed)
            seen.update(op.kind for op in log.ops)
            if seen == set(MUTATION_KINDS):
                break
        assert seen == set(MUTATION_KINDS)

    def test_exhaustion_guard(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="x")
        mutator.has_target = lambda kind, need: False  # type: ignore
        with pytest.raises(ExhaustedTargets):
            mutator.run()


class TestOperators:
    def run_kind(self, kind: str, tree: LabeledTree, seed: int = 0):
        mutator = _Mutator(tree, 0.5, seed=seed, source_page="t")
        pool = mutator.pool(kind, mutator.target)
        assert pool, f"no target for {kind}"
        mutator.apply(kind, pool[0])
        return mutator.seal(), mutator

    def test_remove_leaf(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="t")
        pos = next(
            i for i in mutator.pool("remove_node", mutator.target)
            if not mutator.kids[mutator.nodes[i]]
        )
        leaf_sig = mutator.sigs[mutator.nodes[pos]]
        mutator.apply("remove_node", pos)
        mutant = mutator.seal()
        assert len(mutant) == len(tree) - 1
        assert leaf_sig in mutator.removed

    def test_remove_subtree_records_all_signatures(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="t")
        pos = max(
            mutator.pool("remove_node", mutator.target),
            key=lambda i: len(mutator.kids[mutator.nodes[i]]),
        )
        count = 1 + sum(1 for _ in _walk(mutator.kids, mutator.nodes[pos]))
        mutator.apply("remove_node", pos)
        assert len(mutator.removed) == count

    def test_duplicate_copy_has_no_signatures(self):
        tree = sample_page()
        mutant, mutator = self.run_kind("duplicate", tree)
        assert len(mutant) > len(tree)
        sigs = [n.signature for n in mutant if n.signature]
        assert len(sigs) == len(tree)  # originals kept, copies unsigned
        assert len(set(sigs)) == len(sigs)

    def test_copies_and_wrappers_get_new_ids(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="t")
        section = tree.tags.index("section")
        mutator.apply("duplicate", mutator.nodes.index(section))
        copied = len(tree.children[section]) + 1
        assert len(mutator.tags) == len(tree) + copied
        copy = mutator.kids[tree.parents[section]][1]
        assert copy == len(tree)
        assert [mutator.tags[c] for c in mutator.kids[copy]] == ["h2", "p", "a"]
        assert mutator.sigs[len(tree):] == [None] * copied
        mutator.apply("wrap", 0)
        wrapper = len(tree) + copied
        assert mutator.root == wrapper and mutator.kids[wrapper] == [0]
        assert mutator.parent_of[0] == wrapper
        assert mutator.signed_count[wrapper] == len(tree)

    def test_wrap_inserts_unsigned_parent(self):
        tree = sample_page()
        mutant, mutator = self.run_kind("wrap", tree)
        assert len(mutant) == len(tree) + 1
        assert sum(1 for n in mutant if n.signature is None) == 1
        assert not mutator.removed

    def test_wrap_root_changes_root(self):
        tree = assign_signatures(freeze(DraftNode(tag="html")))
        mutant, _ = self.run_kind("wrap", tree)
        assert mutant.node(0).signature is None
        assert mutant.node(1).tag == "html"

    def test_unwrap_splices_children(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="t")
        pos = next(
            i for i in mutator.pool("unwrap", mutator.target) if mutator.kids[mutator.nodes[i]]
        )
        v = mutator.nodes[pos]
        child_sigs = [mutator.sigs[c] for c in mutator.kids[v]]
        mutator.apply("unwrap", pos)
        mutant = mutator.seal()
        assert len(mutant) == len(tree) - 1
        assert mutator.sigs[v] in mutator.removed
        remaining = {n.signature for n in mutant}
        assert set(child_sigs) <= remaining

    def test_swap_preserves_node_set(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=3, source_page="t")
        pos = mutator.pool("swap", mutator.target)[0]
        parent = mutator.parent_of[mutator.nodes[pos]]
        before = [mutator.sigs[c] for c in mutator.kids[parent]]
        mutator.apply("swap", pos)
        after = [mutator.sigs[c] for c in mutator.kids[parent]]
        assert sorted(map(str, before)) == sorted(map(str, after))
        assert before != after
        assert not mutator.removed
        mutant = mutator.seal()
        assert {n.signature for n in mutant} == {n.signature for n in tree}

    def test_attr_remove(self):
        tree = sample_page()
        mutant, mutator = self.run_kind("attr_remove", tree)
        op = mutator.ops[0]
        target = next(n for n in mutant if n.signature == op.target)
        assert op.detail["attribute"] not in [a for a, _ in target.attributes]

    def test_content_remove(self):
        tree = sample_page()
        mutant, mutator = self.run_kind("content_remove", tree)
        op = mutator.ops[0]
        target = next(n for n in mutant if n.signature == op.target)
        assert target.text is None

    def test_content_ops_preserve_signature(self):
        tree = sample_page()
        for kind in ("content_replace_random", "content_change_letters",
                     "content_remove_words", "attr_remove_words"):
            mutant, mutator = self.run_kind(kind, tree)
            assert {n.signature for n in mutant} == {n.signature for n in tree}

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 1000, 4099])
    def test_flag_pool_items_are_the_set_positions(self, size):
        """A pool view halves its flags down to 256 before it scans; its
        length and items are those of the list of set positions."""
        rng = random.Random(size)
        flags = bytearray(rng.random() < 0.7 for _ in range(size))
        pool = _FlagPool(flags)
        want = [i for i, flag in enumerate(flags) if flag]
        assert len(pool) == len(want)
        assert [pool[k] for k in range(len(pool))] == want
        with pytest.raises(IndexError):
            pool[len(want)]


def _walk(kids, v):
    for child in kids[v]:
        yield child
        yield from _walk(kids, child)


class TestGroundTruth:
    def test_unmutated_pair(self):
        tree = sample_page()
        truth = ground_truth(tree, tree)
        assert truth == {(n.id, n.id) for n in tree}

    def test_after_removal(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="t")
        pos = next(
            i for i in mutator.pool("remove_node", mutator.target)
            if not mutator.kids[mutator.nodes[i]]
        )
        mutator.apply("remove_node", pos)
        truth = ground_truth(tree, mutator.seal())
        assert len(truth) == len(tree) - 1

    def test_after_duplicate(self):
        tree = sample_page()
        mutant, _ = mutate(tree, 0.0, seed=0)
        mutator = _Mutator(tree, 0.5, seed=0, source_page="t")
        mutator.apply("duplicate", mutator.pool("duplicate", mutator.target)[0])
        mutant = mutator.seal()
        truth = ground_truth(tree, mutant)
        assert len(truth) == len(tree)

    def test_duplicate_signature_detected(self):
        draft = DraftNode(tag="a", signature="dup", children=[
            DraftNode(tag="b", signature="dup")
        ])
        bad = freeze(draft)
        with pytest.raises(DuplicateSignature):
            ground_truth(bad, bad)


class TestLogSerialization:
    def test_round_trip(self):
        tree = sample_page()
        _, log = mutate(tree, 0.3, seed=9, source_page="page-x")
        again = mutation_log_from_json(mutation_log_to_json(log))
        assert again == log

    @pytest.mark.parametrize("field,value,named", [
        ("source_page", None, "source_page"),
        ("seed", True, "seed"),
        ("seed", "9", "seed"),
        ("ratio", "fifth", "ratio"),
        ("ratio", -0.1, "ratio"),
        ("ops", {}, "ops"),
        ("ops", [{"kind": "zzz", "target": "s00000", "detail": {}}], "ops[0].kind"),
        ("ops", [{"kind": "wrap", "target": None, "detail": {}}], "ops[0].target"),
        ("ops", [{"kind": "wrap", "target": "s00000", "detail": "x"}], "ops[0].detail"),
        ("ops", [{"kind": "wrap", "target": "s00000"}], "ops[0].detail"),
        ("ops", ["wrap"], "ops[0]"),
        ("removed_signatures", "s00001", "removed_signatures"),
        ("removed_signatures", ["s00001", 2], "removed_signatures"),
    ])
    def test_field_of_the_wrong_shape_is_named(self, field, value, named):
        tree = sample_page()
        _, log = mutate(tree, 0.3, seed=9, source_page="page-x")
        obj = json.loads(mutation_log_to_json(log))
        obj[field] = value
        with pytest.raises(ValueError, match=rf"mutation log (field )?{re.escape(named)} "):
            mutation_log_from_json(json.dumps(obj))


PINNED = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
LIVE_REFERENCE_PAGES = ("p00", "p01")  # small enough to rerun the reference each time


class TestAgainstReference:
    """The incremental pools draw exactly what the full rescan drew."""

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("prefix", PAGES)
    def test_corpus_bundles_byte_identical(self, prefix, ratio):
        """Every case against the reference's digest, pinned by
        ``pin_reference_mutants.py``; the small pages also against the live
        reference, so a drift in the oracle itself still shows."""
        tree = page_tree(prefix)
        for seed in SEEDS:
            got = outcome(mutate, tree, ratio, seed)
            assert digest(got) == PINNED[case_key(prefix, ratio, seed)], (prefix, ratio, seed)
            if prefix in LIVE_REFERENCE_PAGES:
                assert got == outcome(reference_mutate, tree, ratio, seed), (prefix, ratio, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        labeled_trees(max_nodes=24, edge_values=True),
        st.sampled_from((0.1, 0.3, 0.5)),
        st.integers(0, 10_000),
    )
    def test_random_trees_byte_identical(self, bare, ratio, seed):
        tree = assign_signatures(bare)
        assert outcome(mutate, tree, ratio, seed) == outcome(
            reference_mutate, tree, ratio, seed
        )

    def test_exhaustion_message_matches(self):
        tree = sample_page()
        mutator = _Mutator(tree, 0.5, seed=0, source_page="x")
        mutator.has_target = lambda kind, need: False  # type: ignore
        reference = ReferenceMutator(tree, 0.5, seed=0, source_page="x")
        reference.candidates = lambda: {kind: [] for kind in MUTATION_KINDS}  # type: ignore
        messages = []
        for runner in (mutator, reference):
            with pytest.raises(ExhaustedTargets) as info:
                runner.run()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_swap_with_value_equal_copy(self):
        """Swap resolves an unsigned partner to the first sibling equal to it
        by value, as ``list.index`` does among the reference's nodes (ROADMAP
        item 7b); the pools follow the slot the swap really used."""

        class LastChoice(random.Random):
            def choice(self, seq):
                return seq[-1]

        body = DraftNode(tag="body", children=[
            DraftNode(tag="a", text="first"),
            DraftNode(tag="ul", children=[DraftNode(tag="li", text="x"),
                                          DraftNode(tag="li", text="y")]),
        ])
        tree = assign_signatures(freeze(DraftNode(tag="html", children=[body])))
        results = []
        for cls in (_Mutator, ReferenceMutator):
            mutator = cls(tree, 0.5, seed=0, source_page="t")
            mutator.rng = LastChoice(0)
            if cls is _Mutator:
                pool = mutator.pool("duplicate", mutator.target)
                ul = next(i for i in pool if mutator.tags[mutator.nodes[i]] == "ul")
                anchor = next(i for i in pool if mutator.tags[mutator.nodes[i]] == "a")
                parent = mutator.parent_of[mutator.nodes[ul]]
                apply = mutator.apply
                children = lambda m=mutator, p=parent: [m.tags[c] for c in m.kids[p]]
            else:
                pools = mutator.candidates()
                ul, parent = next(e for e in pools["duplicate"] if e[0].tag == "ul")
                anchor = next(n for n, _ in pools["duplicate"] if n.tag == "a")
                apply = lambda kind, node, m=mutator, p=parent: m.apply(kind, node, p)
                children = lambda p=parent: [c.tag for c in p.children]
            apply("duplicate", ul)
            apply("duplicate", ul)
            # children: a, ul, copy, copy; the partner is the last copy, but
            # the lookup by value resolves it to the first one
            apply("swap", anchor)
            assert children() == ["ul", "ul", "a", "ul"]
            mutator.rng = random.Random(5)
            mutant, log = mutator.run()
            results.append((serialize_tree_json(mutant), mutation_log_to_json(log)))
        assert results[0] == results[1]


def _rescanned(mutator: _Mutator, need: int) -> dict:
    """The pools' state as a full walk of the draft from its root finds it."""
    state = {"nodes": [], "has_parent": [], "swap": [], "content": [], "remove": []}
    stack = [(mutator.root, None)]
    order = []
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        stack.extend((c, v) for c in reversed(mutator.kids[v]))
    signed_below: dict[int, int] = {}
    for v, _ in reversed(order):
        signed_below[v] = (mutator.sigs[v] is not None) + sum(
            signed_below[c] for c in mutator.kids[v])
    for v, parent in order:
        if mutator.sigs[v] is None:
            continue
        pos = len(state["nodes"])
        state["nodes"].append(v)
        state["has_parent"].append(parent is not None)
        state["swap"].append(parent is not None and len(mutator.kids[parent]) >= 2)
        state["content"].append(_content_flags(mutator.attrs[v], mutator.texts[v]))
        if parent is not None and signed_below[v] <= need:
            state["remove"].append(pos)
        assert mutator.signed_count[v] == signed_below[v], v
    return state


def _live_state(mutator: _Mutator, need: int) -> dict:
    return {
        "nodes": list(mutator.nodes),
        "has_parent": list(map(bool, mutator._has_parent)),
        "swap": list(map(bool, mutator._swap)),
        "content": [tuple(map(bool, flags)) for flags in zip(*mutator._content)],
        "remove": list(mutator.pool("remove_node", need)),
    }


class TestIncrementalState:
    """After every operator the arrays and pools equal a full rescan."""

    @staticmethod
    def check_run(tree: LabeledTree, ratio: float, seed: int) -> None:
        mutator = _Mutator(tree, ratio, seed, source_page="t")
        while len(mutator.mutated) < mutator.target:
            need = mutator.target - len(mutator.mutated)
            assert _live_state(mutator, need) == _rescanned(mutator, need)
            usable = [kind for kind in MUTATION_KINDS if mutator.has_target(kind, need)]
            if not usable:
                return
            kind = mutator.rng.choice(usable)
            mutator.apply(kind, mutator.rng.choice(mutator.pool(kind, need)))

    @settings(max_examples=60, deadline=None)
    @given(labeled_trees(max_nodes=24, edge_values=True), st.sampled_from((0.2, 0.5)),
           st.integers(0, 10_000))
    def test_random_trees(self, bare, ratio, seed):
        self.check_run(assign_signatures(bare), ratio, seed)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_corpus_page(self, seed):
        self.check_run(page_tree("p04"), 0.3, seed)

    def test_identical_siblings_byte_identical(self, monkeypatch):
        """Many equal siblings make swap resolve unsigned partners to equal
        copies before them; the bundles still equal the reference's."""
        tree = assign_signatures(parse_html(
            "<ul>" + "<li>x</li>" * 12 + "<li><b>y</b></li>" * 12 + "</ul>"))
        resolved_earlier = []
        slot = _Mutator._partner_slot

        def spy(self, kids, partner):
            j = slot(self, kids, partner)
            resolved_earlier.append(j != kids.index(partner))
            return j

        monkeypatch.setattr(_Mutator, "_partner_slot", spy)
        for seed in range(300):
            assert outcome(mutate, tree, 0.5, seed) == outcome(
                reference_mutate, tree, 0.5, seed), seed
        assert any(resolved_earlier)


class TestDeepTrees:
    def test_deep_chain_mutates_deterministically(self):
        depth = 800
        tree = assign_signatures(parse_html("<div>" * depth + "</div>" * depth))
        assert len(tree) == depth
        for ratio in (0.2, 0.5):
            first, log1 = mutate(tree, ratio, seed=0)
            second, log2 = mutate(tree, ratio, seed=0)
            assert first.nodes == second.nodes
            assert mutation_log_to_json(log1) == mutation_log_to_json(log2)
            kept = {n.signature for n in first if n.signature is not None}
            assert kept | log1.removed_signatures == {n.signature for n in tree}


class TestScaling:
    def test_long_list_time_grows_near_linearly(self):
        """At ratio 0.2, a ``<ul>`` of 10,000 identical ``<li>`` took 15 times
        as long as one of 2,500 while slots were found by comparing nodes by
        value and every pool was rebuilt as a list; with slots found by id
        and pools read as views it takes 7 to 9 times as long. The repeats of
        the two sizes alternate, so both see the same host load."""
        sizes = (2_500, 10_000)
        trees = [assign_signatures(parse_html("<ul>" + "<li>x</li>" * n + "</ul>"))
                 for n in sizes]
        best = [math.inf] * len(sizes)
        for _ in range(3):
            for k, tree in enumerate(trees):
                start = time.perf_counter()
                mutate(tree, 0.2, seed=1)
                best[k] = min(best[k], time.perf_counter() - start)
        small, large = best
        assert large / small < 12, (small, large)
