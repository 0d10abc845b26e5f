"""BK-tree (query/bktree.py): the level-wise built flat tree is node for node
the tree sequential insertion builds, and ``find`` equals a brute-force
scalar Levenshtein scan."""

import random

import pytest

from search_engine_ray.query.bktree import BKTree, levenshtein
from search_engine_ray.sources.webpages import make_vocab

# terms that stress the code store: empty, NUL, non-BMP, one long outlier
ODD_TERMS = ["", "\x00", "a\x00b", "\U0001d11e\U0001f600", "é\U0001f600",
             "x" * 300, "ab", "ba", "a"]


def _sequential_spec(terms):
    """Sequential insertion (each term walks down from the root along the
    edge labelled with its distance to each node and becomes a new child
    where that edge is missing) → root ``[term, {dist: child}]`` or None."""
    root = None
    for t in terms:
        if root is None:
            root = [t, {}]
            continue
        node = root
        while True:
            d = levenshtein(t, node[0])
            if d == 0:
                break
            child = node[1].get(d)
            if child is None:
                node[1][d] = [t, {}]
                break
            node = child
    return root


def _assert_same_tree(tree: BKTree, spec) -> None:
    """Node term, edge and children of every node equal the spec's."""
    ptr = tree._child_ptr
    stack = [(0, spec)]
    n = 0
    while stack:
        node, (term, children) = stack.pop()
        n += 1
        assert tree._term(node) == term
        kids = {int(tree._edge[c]): c for c in range(ptr[node], ptr[node + 1])}
        assert sorted(kids) == sorted(children), term
        stack.extend((kids[d], child) for d, child in children.items())
    assert n == len(tree)


def test_bench_dictionary_matches_sequential_insert():
    """The serving benchmark's dictionary: make_vocab(4000) in the sorted
    order ``SearchEngine`` hands to the tree."""
    terms = sorted(make_vocab(4000))
    tree = BKTree(terms)
    assert len(tree) == 4000
    _assert_same_tree(tree, _sequential_spec(terms))


@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_with_duplicates_matches_sequential_insert(seed):
    rng = random.Random(seed)
    terms = make_vocab(800) + ODD_TERMS
    terms += rng.sample(terms, 100)  # repeats, some of them after their twin
    rng.shuffle(terms)
    tree = BKTree(terms)
    assert len(tree) == len(set(terms))
    _assert_same_tree(tree, _sequential_spec(terms))


@pytest.fixture(scope="module")
def scanned():
    """(tree, {probe: [(term, scalar distance)] over every term})."""
    rng = random.Random(7)
    terms = make_vocab(500) + ODD_TERMS
    rng.shuffle(terms)
    inside = rng.sample(terms, 25) + ODD_TERMS
    outside = ["", "zzzz", "bab", "bababaa", "\x00\x00", "\U0001f600",
               "x" * 299, "qababa1", "cbaaba"]
    outside += [t[1:] + "q" for t in inside[:10]]
    return BKTree(terms), {key: [(t, levenshtein(key, t)) for t in terms]
                           for key in inside + outside}


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_find_equals_brute_force_scan(scanned, d):
    tree, dists = scanned
    for key, row in dists.items():
        want = sorted((t, x) for t, x in row if x <= d)
        assert sorted(tree.find(key, d, with_distance=True)) == want, key
        assert sorted(tree.find(key, d)) == [t for t, _ in want], key


def test_duplicates_dropped_and_empty_vocabulary():
    tree = BKTree(["ab", "ab", "cd", "ab", "cd"])
    assert len(tree) == 2
    assert tree.find("ab", 0) == ["ab"]
    assert sorted(tree.find("ab", 2, with_distance=True)) == [("ab", 0), ("cd", 2)]
    for empty in (BKTree([]), BKTree(), BKTree(iter(()))):
        assert len(empty) == 0
        assert empty.find("x", 2) == [] and empty.find("", 0) == []
        assert empty.find("x", 2, with_distance=True) == []
    one = BKTree([""])
    assert one.find("", 0) == [""] and one.find("ab", 1) == []
    assert one.find("ab", 2, with_distance=True) == [("", 2)]
    assert BKTree(["ab", "cd"]).find("ab", -1) == []
