import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdns.bits import BitString
from semdns.contexts import (
    ContextDescriptor,
    ContextError,
    ContextRegistry,
    DuplicateContextError,
    FieldBoundaryError,
    LogicalLocation,
    SemanticTree,
    UnknownContextError,
    covered_set,
    decode_logical,
    default_registry,
    encode_logical,
    encode_tree_path,
    frame_identifier,
    load_registry,
    parse_identifier,
)


def demo_quadtree():
    """The degree-4 illustration tree: two 2-bit levels, leaves everywhere."""
    tree = SemanticTree([2, 2])
    for i in range(4):
        tree.add([], i, f"b{i:02b}")
        for j in range(4):
            tree.add([f"b{i:02b}"], j, f"l{j:02b}")
    return tree


class TestRegistry:
    def test_register_and_lookup(self, registry):
        assert registry.lookup(1).field_widths == (5, 5, 5, 5)
        assert registry.lookup(2).field_widths == (5, 5, 10)
        assert registry.lookup(3).kind == "geo"

    def test_duplicate_id_rejected(self):
        reg = ContextRegistry()
        reg.register(ContextDescriptor(1, "tree", (5,)))
        with pytest.raises(DuplicateContextError):
            reg.register(ContextDescriptor(1, "logical", (5, 5, 10)))

    def test_unknown_id(self, registry):
        with pytest.raises(UnknownContextError):
            registry.lookup(9)

    def test_widths_must_be_multiples_of_five(self):
        with pytest.raises(ContextError):
            ContextDescriptor(4, "tree", (5, 3))


class TestFraming:
    def test_td_example(self, registry):
        ident = frame_identifier(registry.lookup(1), [12, 1, 5, 2])
        assert ident.label == "1d152"
        assert ident.bits == BitString("0000101100000010010100010")

    def test_logical_example(self, registry):
        assert frame_identifier(registry.lookup(2), [7, 19, 376]).label == "27mcs"

    def test_all_zero_fields(self, registry):
        ident = frame_identifier(registry.lookup(1), [0, 0, 0, 0])
        assert ident.payload == BitString("0" * 20)

    def test_overflow_rejected(self, registry):
        with pytest.raises(ContextError):
            frame_identifier(registry.lookup(2), [7, 19, 1024])

    def test_count_mismatch_rejected(self, registry):
        with pytest.raises(ContextError):
            frame_identifier(registry.lookup(1), [1, 2, 3])


class TestParsing:
    def test_full_identifier(self, registry):
        parsed = parse_identifier("1d152", registry)
        assert parsed.context.id == 1
        assert parsed.field_values == (12, 1, 5, 2)
        assert not parsed.partial

    def test_context_only_prefix(self, registry):
        parsed = parse_identifier("2", registry)
        assert (parsed.context.id, parsed.field_values, parsed.partial) == (2, (), True)

    def test_partial_prefix(self, registry):
        parsed = parse_identifier("27m", registry)
        assert parsed.field_values == (7, 19)
        assert parsed.partial

    def test_unknown_context(self, registry):
        with pytest.raises(UnknownContextError):
            parse_identifier("z0000", registry)

    def test_truncation_off_boundary(self, registry):
        # 27mc carries 5 of the 10 room bits
        with pytest.raises(FieldBoundaryError):
            parse_identifier("27mc", registry)

    @given(st.tuples(st.integers(0, 31), st.integers(0, 31), st.integers(0, 1023)))
    def test_round_trip(self, values):
        registry = default_registry()
        ident = frame_identifier(registry.lookup(2), list(values))
        assert parse_identifier(ident.label, registry).field_values == values

    @given(st.lists(st.integers(0, 31), min_size=0, max_size=4))
    def test_prefix_law(self, values):
        registry = default_registry()
        context = registry.lookup(1)
        full = frame_identifier(context, values + [0] * (4 - len(values)))
        prefix = frame_identifier(context, values, partial=True)
        assert full.label.startswith(prefix.label)
        parsed = parse_identifier(prefix.label, registry)
        assert parsed.field_values == tuple(values)


class TestTree:
    def test_td_path(self, registry):
        tree = registry.tree(1)
        ident = encode_tree_path(
            tree, ["properties", "temperature", "unit", "degree_Celsius"], registry.lookup(1)
        )
        assert ident.label == "1d152"

    def test_demo_quadtree_leaf_code(self):
        tree = demo_quadtree()
        assert tree.path_code([0b11, 0b01]) == BitString("1101")

    def test_empty_path_gives_context_only(self, registry):
        ident = encode_tree_path(registry.tree(1), [], registry.lookup(1))
        assert ident.label == "1"
        assert ident.partial

    def test_unknown_label(self, registry):
        with pytest.raises(ContextError):
            encode_tree_path(registry.tree(1), ["nope"], registry.lookup(1))

    def test_covered_set_demo(self):
        tree = demo_quadtree()
        codes = tree.leaf_codes_under([0b11])
        assert codes == {BitString("1100"), BitString("1101"),
                         BitString("1110"), BitString("1111")}

    def test_covered_set_full_is_singleton(self):
        tree = demo_quadtree()
        assert tree.leaf_codes_under([0b11, 0b01]) == {BitString("1101")}

    def test_covered_set_of_a_path_the_tree_lacks_is_empty(self, registry):
        assert demo_quadtree().leaf_codes_under([0b11, 0b01, 0b00]) == set()
        assert registry.tree(1).leaf_codes_under([12, 0]) == set()

    def test_covered_set_root_is_all_leaves(self):
        tree = demo_quadtree()
        assert len(tree.leaf_codes_under([])) == 16

    def test_covered_set_monotone(self):
        tree = demo_quadtree()
        whole = tree.leaf_codes_under([0b10])
        union = set()
        for child in range(4):
            part = tree.leaf_codes_under([0b10, child])
            assert part <= whole
            union |= part
        assert union == whole

    def test_covered_set_registered_context(self, registry):
        prefix = encode_tree_path(registry.tree(1), ["properties"], registry.lookup(1))
        full = covered_set(prefix, registry.tree(1), registry)
        assert {i.label for i in full} == {"1d152"}

    def test_leaf_codes_distinct(self):
        tree = demo_quadtree()
        codes = tree.leaf_codes_under([])
        assert len(codes) == len({c.bits for c in codes})


class TestLogical:
    def test_building_floor_room_golden(self, registry):
        ident = encode_logical(LogicalLocation(7, 19, 376), registry.lookup(2))
        assert ident.label == "27mcs"

    def test_zero_case(self, registry):
        assert encode_logical(LogicalLocation(0, 0, 0), registry.lookup(2)).label == "20000"

    def test_room_56(self, registry):
        assert encode_logical(LogicalLocation(1, 5, 56), registry.lookup(2)).label == "2151s"

    def test_range_check(self):
        with pytest.raises(ContextError):
            LogicalLocation(32, 0, 0)
        with pytest.raises(ContextError):
            LogicalLocation(0, 0, 1024)

    @given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 1023))
    def test_round_trip(self, b, f, r):
        registry = default_registry()
        loc = LogicalLocation(b, f, r)
        label = encode_logical(loc, registry.lookup(2)).label
        assert decode_logical(label, registry) == loc


class TestRegistryFile:
    def test_loads_defaults(self):
        registry = default_registry()
        assert registry.ids() == [1, 2, 3]

    def test_rejects_bad_directive(self):
        with pytest.raises(ContextError):
            load_registry("nonsense 1 2 3")

    def test_rejects_duplicate_node_index(self):
        text = "context 1 tree 5\nnode 1 / 3 x\nnode 1 / 3 y\n"
        with pytest.raises(ContextError):
            load_registry(text)

    @pytest.mark.parametrize("text", [
        "node 1 / 3 x\n",
        "context 1 tree 5\nnode 2 / 3 x\n",
        "context 2 logical 5 5 10\nnode 2 / 3 x\n",
    ], ids=["before-its-context", "unknown-context", "context-without-a-tree"])
    def test_rejects_a_node_with_no_tree_naming_the_line(self, text):
        with pytest.raises(ContextError, match=f"registry line {text.count(chr(10))}:"):
            load_registry(text)

    def test_comments_and_blanks_ignored(self):
        registry = load_registry("# nothing\n\ncontext 4 logical 5 5 10\n")
        assert registry.lookup(4).kind == "logical"
