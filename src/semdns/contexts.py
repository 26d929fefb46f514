"""Context registry and the symbolic identifier contexts.

A Context is the 5-bit selector at the head of every identifier: it fixes
how many fields follow, how wide each one is, and what they mean.  This
module covers the two symbolic kinds -- hierarchical semantic trees
(Context-1 style) and logical locations (Context-2 style) -- plus the
registry that maps context ids to their descriptors.  Geographic
identifiers have their own arithmetic and live in :mod:`semdns.geo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .bits import BitString, b32_decode, b32_encode

CONTEXT_ID_BITS = 5


class ContextError(ValueError):
    pass


class DuplicateContextError(ContextError):
    pass


class UnknownContextError(ContextError):
    pass


class FieldBoundaryError(ContextError):
    """Label truncated in the middle of a field, not at a field boundary."""


@dataclass(frozen=True)
class ContextDescriptor:
    """Declares one context: its id, interpretation and field layout."""

    id: int
    kind: str  # "tree" | "logical" | "geo"
    field_widths: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= self.id < 32:
            raise ContextError(f"context id must be 0..31, got {self.id}")
        if self.kind not in ("tree", "logical", "geo"):
            raise ContextError(f"unknown context kind {self.kind!r}")
        if self.kind in ("tree", "logical"):
            for w in self.field_widths:
                if w <= 0 or w % 5:
                    raise ContextError(
                        f"field width {w} invalid: symbolic contexts use widths "
                        f"that are multiples of 5 bits"
                    )


@dataclass(frozen=True)
class SemanticIdentifier:
    """A context id plus payload bits; renders to one base32 DNS label.

    ``partial`` marks a prefix identifier: one that carries only the first
    few fields and stands for every identifier extending it.
    """

    context_id: int
    payload: BitString = BitString()
    partial: bool = False

    @property
    def bits(self) -> BitString:
        return BitString.from_int(self.context_id, CONTEXT_ID_BITS) + self.payload

    @property
    def label(self) -> str:
        return b32_encode(self.bits)

    def __str__(self) -> str:
        return self.label


def frame_identifier(
    context: ContextDescriptor, field_values: Sequence[int], partial: bool = False
) -> SemanticIdentifier:
    """Pack field values MSB-first into their declared widths.

    ``partial`` permits fewer values than declared fields (a prefix
    identifier); extra values are always an error, as is any value that
    overflows its width.
    """
    widths = context.field_widths
    if partial:
        if len(field_values) > len(widths):
            raise ContextError(
                f"{len(field_values)} values for {len(widths)} fields"
            )
    elif len(field_values) != len(widths):
        raise ContextError(
            f"context {context.id} declares {len(widths)} fields, "
            f"got {len(field_values)} values"
        )
    payload = BitString()
    for value, width in zip(field_values, widths):
        if value >= (1 << width):
            raise ContextError(f"value {value} overflows its {width}-bit field")
        payload += BitString.from_int(value, width)
    partial = partial and len(field_values) < len(widths)
    return SemanticIdentifier(context.id, payload, partial=partial)


@dataclass(frozen=True)
class ParsedIdentifier:
    context: ContextDescriptor
    field_values: tuple[int, ...]
    partial: bool


class ContextRegistry:
    """Id -> descriptor map, built once at startup and read-only after."""

    def __init__(self):
        self._contexts: dict[int, ContextDescriptor] = {}
        self._trees: dict[int, SemanticTree] = {}

    def register(self, descriptor: ContextDescriptor, tree: Optional["SemanticTree"] = None):
        if descriptor.id in self._contexts:
            raise DuplicateContextError(f"context id {descriptor.id} already registered")
        self._contexts[descriptor.id] = descriptor
        if tree is not None:
            self._trees[descriptor.id] = tree

    def lookup(self, context_id: int) -> ContextDescriptor:
        try:
            return self._contexts[context_id]
        except KeyError:
            raise UnknownContextError(f"no context registered with id {context_id}") from None

    def tree(self, context_id: int) -> "SemanticTree":
        self.lookup(context_id)
        try:
            return self._trees[context_id]
        except KeyError:
            raise ContextError(f"context {context_id} has no semantic tree") from None

    def ids(self) -> list[int]:
        return sorted(self._contexts)


def parse_identifier(label: str, registry: ContextRegistry) -> ParsedIdentifier:
    """Recover (context, field values) from a label; prefixes come back partial.

    Truncation is only legal at a field boundary: leftover bits that do not
    complete the next declared field are an error.
    """
    bits = b32_decode(label)
    if len(bits) < CONTEXT_ID_BITS:
        raise ContextError("label too short to carry a context id")
    context = registry.lookup(bits[:CONTEXT_ID_BITS].to_int())
    if context.kind == "geo":
        raise ContextError(
            "geo identifiers carry interleaved coordinates; decode them with semdns.geo"
        )
    payload = bits[CONTEXT_ID_BITS:]
    values = []
    offset = 0
    for width in context.field_widths:
        if offset == len(payload):
            break
        if offset + width > len(payload):
            raise FieldBoundaryError(
                f"label {label!r} truncated mid-field: {len(payload) - offset} "
                f"leftover bits do not fill the next {width}-bit field"
            )
        values.append(payload[offset : offset + width].to_int())
        offset += width
    if offset < len(payload):
        raise ContextError(
            f"label {label!r} carries {len(payload) - offset} bits beyond the "
            f"declared fields of context {context.id}"
        )
    return ParsedIdentifier(context, tuple(values), partial=len(values) < len(context.field_widths))


# ---------------------------------------------------------------------------
# Semantic trees


class SemanticTree:
    """Hierarchy of labeled children; a root-to-leaf walk yields the code.

    Each level has a declared bit width (arity 2**width), so child indices
    concatenate into the identifier payload.  Levels may differ in width.
    """

    def __init__(self, level_widths: Sequence[int]):
        if not level_widths or any(w <= 0 for w in level_widths):
            raise ContextError("level widths must be positive")
        self.level_widths = tuple(level_widths)
        self._root = _TreeNode(None, None)

    def add(self, parent_path: Sequence[str], index: int, label: str) -> None:
        """Attach a child named ``label`` at ``index`` under ``parent_path``."""
        node = self._walk(parent_path)[-1]
        depth = len(parent_path)
        if depth >= len(self.level_widths):
            raise ContextError(f"tree has only {len(self.level_widths)} levels")
        width = self.level_widths[depth]
        if not 0 <= index < (1 << width):
            raise ContextError(
                f"index {index} out of range for a {width}-bit level"
            )
        if index in node.children:
            raise ContextError(f"index {index} already used under {'/'.join(parent_path) or '/'}")
        if label in node.by_label:
            raise ContextError(f"label {label!r} already used under {'/'.join(parent_path) or '/'}")
        child = _TreeNode(label, index)
        node.children[index] = child
        node.by_label[label] = child

    def _walk(self, path: Sequence[Union[str, int]]) -> list["_TreeNode"]:
        """The nodes along ``path`` (child labels or raw indices), the root
        first; ContextError at a step the tree does not hold."""
        nodes = [self._root]
        for step in path:
            node = nodes[-1]
            child = node.children.get(step) if isinstance(step, int) else node.by_label.get(step)
            if child is None:
                raise ContextError(f"unknown tree step {step!r}")
            nodes.append(child)
        return nodes

    def path_indices(self, path: Sequence[Union[str, int]]) -> list[int]:
        """Resolve a path of labels (or raw indices) to child indices."""
        return [node.index for node in self._walk(path)[1:]]

    def path_code(self, path: Sequence[Union[str, int]]) -> BitString:
        """Binary code of a (possibly partial) root-to-leaf traversal."""
        code = BitString()
        for depth, index in enumerate(self.path_indices(path)):
            code += BitString.from_int(index, self.level_widths[depth])
        return code

    def leaf_codes_under(self, prefix_indices: Sequence[int]) -> set[BitString]:
        """Codes of every leaf whose path extends ``prefix_indices``; none for an unknown one."""
        try:
            node = self._walk(prefix_indices)[-1]
        except ContextError:
            return set()
        out: set[BitString] = set()
        self._collect(node, len(prefix_indices), self.path_code(prefix_indices), out)
        return out

    def _collect(self, node: "_TreeNode", depth: int, code: BitString, out: set[BitString]):
        if not node.children:
            out.add(code)
            return
        for index in sorted(node.children):
            child = node.children[index]
            self._collect(child, depth + 1, code + BitString.from_int(index, self.level_widths[depth]), out)


class _TreeNode:
    __slots__ = ("label", "index", "children", "by_label")

    def __init__(self, label, index):
        self.label = label
        self.index = index
        self.children: dict[int, _TreeNode] = {}
        self.by_label: dict[str, _TreeNode] = {}


def encode_tree_path(
    tree: SemanticTree,
    path: Sequence[Union[str, int]],
    context: ContextDescriptor,
) -> SemanticIdentifier:
    """Identifier for a tree traversal; shorter paths give prefix identifiers."""
    values = tree.path_indices(path)
    return frame_identifier(context, values, partial=True)


def covered_set(
    prefix: SemanticIdentifier, tree: SemanticTree, registry: ContextRegistry
) -> set[SemanticIdentifier]:
    """Every full identifier whose tree code extends the prefix identifier."""
    registry.lookup(prefix.context_id)
    values = parse_identifier(prefix.label, registry).field_values
    return {
        SemanticIdentifier(prefix.context_id, code)
        for code in tree.leaf_codes_under(values)
    }


# ---------------------------------------------------------------------------
# Logical locations


LOGICAL_WIDTHS = (5, 5, 10)


@dataclass(frozen=True)
class LogicalLocation:
    """Building / floor / room triple; fits the standard logical layout."""

    building: int
    floor: int
    room: int

    def __post_init__(self):
        for value, width, name in zip(
            (self.building, self.floor, self.room), LOGICAL_WIDTHS, ("building", "floor", "room")
        ):
            if not 0 <= value < (1 << width):
                raise ContextError(f"{name} {value} out of range 0..{(1 << width) - 1}")


def encode_logical(loc: LogicalLocation, context: ContextDescriptor) -> SemanticIdentifier:
    if context.kind != "logical":
        raise ContextError(f"context {context.id} is not a logical context")
    return frame_identifier(context, (loc.building, loc.floor, loc.room))


def decode_logical(label: str, registry: ContextRegistry) -> LogicalLocation:
    parsed = parse_identifier(label, registry)
    if parsed.context.kind != "logical" or parsed.partial:
        raise ContextError(f"{label!r} is not a full logical-location identifier")
    return LogicalLocation(*parsed.field_values)


# ---------------------------------------------------------------------------
# Registry file


def load_registry(text: str) -> ContextRegistry:
    """Build a registry from the line-oriented config format.

    Two directives, whitespace separated, '#' starts a comment::

        context <id> tree <width> [<width> ...]
        context <id> logical <width> <width> <width>
        context <id> geo
        node <context-id> <parent-path> <index> <label>

    ``parent-path`` is '/' for the root or '/labels/joined/by/slashes'.
    Node lines must follow the context line they refer to.
    """
    registry = ContextRegistry()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "context":
                cid = int(parts[1])
                kind = parts[2]
                widths = tuple(int(w) for w in parts[3:])
                descriptor = ContextDescriptor(cid, kind, widths)
                registry.register(descriptor, SemanticTree(widths) if kind == "tree" else None)
            elif parts[0] == "node":
                cid = int(parts[1])
                path = [p for p in parts[2].split("/") if p]
                index = int(parts[3])
                label = parts[4]
                registry.tree(cid).add(path, index, label)
            else:
                raise ContextError(f"unknown directive {parts[0]!r}")
        except IndexError as exc:
            raise ContextError(f"registry line {lineno}: malformed entry {raw!r}") from exc
        except ContextError as exc:
            raise ContextError(f"registry line {lineno}: {exc}") from None
    return registry


def default_registry() -> ContextRegistry:
    """The three standard contexts plus the worked temperature-sensor tree."""
    return load_registry(DEFAULT_REGISTRY_TEXT)


DEFAULT_REGISTRY_TEXT = """\
# Standard contexts
context 1 tree 5 5 5 5
context 2 logical 5 5 10
context 3 geo

# Thing-Description-derived semantic tree for context 1 (temperature sensor)
node 1 / 12 properties
node 1 /properties 1 temperature
node 1 /properties/temperature 5 unit
node 1 /properties/temperature/unit 2 degree_Celsius
"""
