"""Unit tests for the data-tree substrate (Definition 2.1)."""

import pytest

from repro.errors import TreeError
from repro.trees import (
    DataTree,
    branch,
    build,
    copy_subtree,
    fresh_id,
    from_dict,
    graft_at_root,
    leaf,
    parse_tree,
    prune_to_union,
    relabel_outside,
    remap_ids,
    restrict_labels,
    swap_ids,
    to_dict,
    to_literal,
    to_xml,
)
from repro.trees.ops import fresh_label_for


class TestConstruction:
    def test_root_exists(self):
        tree = DataTree()
        assert tree.size == 1
        assert tree.parent(tree.root) is None

    def test_add_child_and_labels(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        assert tree.label(a) == "a"
        assert tree.parent(b) == a
        assert tree.children(a) == (b,)

    def test_add_path(self):
        tree = DataTree()
        deep = tree.add_path(tree.root, ["a", "b", "c"])
        assert tree.path_labels(deep) == ("a", "b", "c")

    def test_explicit_id_collision_rejected(self):
        tree = DataTree()
        tree.add_child(tree.root, "a", nid=5000)
        with pytest.raises(TreeError):
            tree.add_child(tree.root, "b", nid=5000)

    def test_builder_and_literal_agree(self):
        built = build(branch("a", leaf("b"), branch("c", leaf("d"))))
        parsed = parse_tree("a(b, c(d))")
        assert built.canonical_shape() == parsed.canonical_shape()

    def test_pinned_ids_do_not_collide_with_fresh(self):
        tree = build(branch("a", branch("b"), nid=777001),
                     branch("a", branch("b", nid=777002)))
        tree.validate()
        assert 777001 in tree and 777002 in tree


class TestNavigation:
    def test_preorder_covers_all(self):
        tree = parse_tree("a(b(c), d)")
        assert len(list(tree.node_ids())) == tree.size

    def test_ancestors_and_depth(self):
        tree = DataTree()
        deep = tree.add_path(tree.root, ["a", "b", "c"])
        assert tree.depth(deep) == 3
        labels = [tree.label(n) for n in tree.ancestors(deep)]
        assert labels == ["b", "a", tree.label(tree.root)]

    def test_path_labels_excludes_root(self):
        tree = DataTree("myroot")
        deep = tree.add_path(tree.root, ["x", "y"])
        assert tree.path_labels(deep) == ("x", "y")
        assert tree.path_labels(tree.root) == ()

    def test_is_ancestor(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        assert tree.is_ancestor(a, b)
        assert not tree.is_ancestor(b, a)


class TestMutation:
    def test_remove_subtree(self):
        tree = parse_tree("a(b(c), d)")
        target = next(n.nid for n in tree.nodes() if n.label == "b")
        tree.remove_subtree(target)
        tree.validate()
        assert sorted(n.label for n in tree.nodes()) == ["a", "d", "root"]

    def test_cannot_remove_root(self):
        tree = DataTree()
        with pytest.raises(TreeError):
            tree.remove_subtree(tree.root)

    def test_move_preserves_ids(self):
        tree = parse_tree("a(b), c")
        b = next(n.nid for n in tree.nodes() if n.label == "b")
        c = next(n.nid for n in tree.nodes() if n.label == "c")
        tree.move(b, c)
        tree.validate()
        assert tree.parent(b) == c

    def test_move_under_own_subtree_rejected(self):
        tree = parse_tree("a(b)")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        b = next(n.nid for n in tree.nodes() if n.label == "b")
        with pytest.raises(TreeError):
            tree.move(a, b)

    def test_relabel_fresh_changes_identity(self):
        tree = parse_tree("a(b)")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        new_id = tree.relabel_fresh(a)
        tree.validate()
        assert new_id != a and a not in tree
        assert tree.label(new_id) == "a"

    def test_relabel_fresh_keeps_children(self):
        tree = parse_tree("a(b, c)")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        new_id = tree.relabel_fresh(a, "x")
        assert sorted(tree.label(k) for k in tree.children(new_id)) == ["b", "c"]

    def test_relabel_fresh_takes_an_id_drawn_earlier(self):
        tree = parse_tree("a(b)")
        a, b = (n.nid for n in tree.nodes() if n.nid != tree.root)
        drawn = fresh_id()
        assert tree.relabel_fresh(a, new_id=drawn) == drawn
        tree.validate()
        assert tree.children(drawn) == (b,) and a not in tree
        with pytest.raises(TreeError):
            tree.relabel_fresh(b, new_id=drawn)


class TestCopiesAndIdentity:
    def test_copy_is_same_instance(self):
        tree = parse_tree("a(b(c))")
        assert tree.copy().same_instance(tree)

    def test_same_instance_detects_id_change(self):
        tree = parse_tree("a")
        clone = tree.copy()
        a = next(n.nid for n in clone.nodes() if n.label == "a")
        clone.relabel_fresh(a)
        assert not clone.same_instance(tree)

    def test_canonical_shape_ignores_ids_and_order(self):
        one = parse_tree("a(b, c)")
        two = parse_tree("a(c, b)")
        assert one.canonical_shape() == two.canonical_shape()

    def test_swap_ids(self):
        tree = parse_tree("a(b), a")
        outer = [n.nid for n in tree.nodes() if n.label == "a"]
        swapped = swap_ids(tree, outer[0], outer[1])
        assert swapped.label(outer[0]) == "a"
        kids = {swapped.label(k) for k in swapped.children(outer[1])}
        assert kids == {"b"}

    def test_swap_requires_equal_labels(self):
        tree = parse_tree("a, b")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        b = next(n.nid for n in tree.nodes() if n.label == "b")
        with pytest.raises(TreeError):
            swap_ids(tree, a, b)

    def test_remap_collision_detected(self):
        tree = parse_tree("a, b")
        ids = [n.nid for n in tree.nodes() if n.label in "ab"]
        with pytest.raises(TreeError):
            remap_ids(tree, {ids[0]: ids[1]})


class TestOps:
    def test_copy_subtree_fresh(self):
        src = parse_tree("a(b(c))")
        dst = DataTree()
        a = next(n.nid for n in src.nodes() if n.label == "a")
        mapping = copy_subtree(src, a, dst, dst.root, fresh=True)
        assert set(mapping) == {n.nid for n in src.nodes() if n.label in "abc"}
        assert all(old != new for old, new in mapping.items())
        dst.validate()

    def test_graft_at_root(self):
        base = parse_tree("a")
        extra = parse_tree("b(c)")
        graft_at_root(base, extra, fresh=False)
        base.validate()
        assert sorted(base.label(c) for c in base.children(base.root)) == ["a", "b"]

    def test_prune_to_union(self):
        tree = parse_tree("a(b(c), d), e")
        c = next(n.nid for n in tree.nodes() if n.label == "c")
        pruned = prune_to_union(tree, [c])
        assert sorted(n.label for n in pruned.nodes()) == ["a", "b", "c", "root"]

    def test_relabel_outside(self):
        tree = parse_tree("a(b)")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        result = relabel_outside(tree, {a})
        labels = sorted(n.label for n in result.nodes())
        assert labels == ["a", "root", "z"]

    def test_restrict_labels(self):
        tree = parse_tree("a(b, q)")
        result = restrict_labels(tree, {"a", "b"})
        assert sorted(n.label for n in result.nodes()) == ["a", "b", "root", "z"]

    def test_fresh_label_avoids_used(self):
        assert fresh_label_for({"a"}) == "z"
        assert fresh_label_for({"z"}) == "z_"
        assert fresh_label_for({"z", "z_"}) == "z__"


class TestSerialization:
    def test_dict_roundtrip(self):
        tree = parse_tree("a(b(c), d)")
        assert from_dict(to_dict(tree)).same_instance(tree)

    def test_literal_roundtrip(self):
        tree = parse_tree("a(b, c(d))")
        again = parse_tree(to_literal(tree))
        assert again.canonical_shape() == tree.canonical_shape()

    def test_literal_with_ids_roundtrip(self):
        tree = parse_tree("a(b)")
        again = parse_tree(to_literal(tree, with_ids=True))
        original = {n for n in tree.nodes() if n.nid != tree.root}
        restored = {n for n in again.nodes() if n.nid != again.root}
        assert original == restored

    def test_xml_rendering_mentions_ids(self):
        tree = parse_tree("a")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        assert f'id="{a}"' in to_xml(tree)

    def test_validate_catches_corruption(self):
        tree = parse_tree("a(b)")
        b = next(n.nid for n in tree.nodes() if n.label == "b")
        tree._parent[b] = b  # simulate corruption
        with pytest.raises(TreeError):
            tree.validate()


class TestCachesAndVersioning:
    def test_version_bumps_on_every_mutation(self):
        tree = parse_tree("a(b), c")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        b = next(n.nid for n in tree.nodes() if n.label == "b")
        c = next(n.nid for n in tree.nodes() if n.label == "c")
        v = tree.version
        tree.add_child(a, "x")
        assert tree.version > v
        v = tree.version
        tree.move(b, c)
        assert tree.version > v
        v = tree.version
        tree.relabel_fresh(c, "y")
        assert tree.version > v

    def test_children_tuple_cached_and_invalidated(self):
        tree = parse_tree("a(b)")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        first = tree.children(a)
        assert tree.children(a) is first  # cached tuple, no re-allocation
        x = tree.add_child(a, "x")
        after = tree.children(a)
        assert after is not first and x in after

    def test_children_cache_invalidated_by_move_and_remove(self):
        tree = parse_tree("a(b), c")
        a = next(n.nid for n in tree.nodes() if n.label == "a")
        b = next(n.nid for n in tree.nodes() if n.label == "b")
        c = next(n.nid for n in tree.nodes() if n.label == "c")
        tree.children(a)
        tree.children(c)
        tree.move(b, c)
        assert tree.children(a) == ()
        assert tree.children(c) == (b,)
        tree.remove_subtree(b)
        assert tree.children(c) == ()

    def test_hash_stable_and_invalidated(self):
        tree = parse_tree("a(b)")
        h1 = hash(tree)
        assert hash(tree) == h1  # cached path
        tree.add_child(tree.root, "c")
        h2 = hash(tree)
        assert hash(tree) == h2
        # equal instances must hash equal (copy preserves ids and shape)
        assert hash(tree.copy()) == h2 and tree.copy() == tree

    def test_canonical_shape_cache_survives_copy(self):
        tree = parse_tree("a(b, c)")
        shape = tree.canonical_shape()
        clone = tree.copy()
        assert clone.canonical_shape() == shape
        clone.add_child(clone.root, "d")
        assert clone.canonical_shape() != shape
        assert tree.canonical_shape() == shape  # original untouched

    def test_deep_chain_shape_has_no_recursion_limit(self):
        import sys

        tree = DataTree()
        tree.add_path(tree.root, ["a"] * (sys.getrecursionlimit() + 100))
        shape = tree.canonical_shape()
        assert shape[0] == "root"
