"""Textual group specifications.

Grammar (whitespace-insensitive):

    spec := atom ("x" atom)*
    atom := "C(" n ")" | "EA(" p "," r ")" | "D(" m ")" | "Q(" m ")"
          | "M(" p "," n ")" | "He(" p ")" | "G(" p "," q "," n ")"
          | "H(" p "," s "," t ")" | "K(" p "," s "," t ")"
          | "SD(" p "," q ")" | "C27Q8"

Parameters are written in the ASCII digits 0-9 only.

The canonical form separates atoms with " x " and has no other spaces,
e.g. "C(3) x D(8)"; parse and str round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import ParseError
from .families import FAMILY_BUILDERS
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, direct_product

__all__ = ["GroupSpec", "parse_spec", "build_group"]

# longest tags first so "C27Q8" wins over "C" and "He" over "H"
_TAGS = sorted(FAMILY_BUILDERS, key=len, reverse=True)
# str.isdigit also accepts e.g. "²" and "٣", which int() reads or rejects
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class GroupSpec:
    """A parsed group expression: direct product of family atoms."""

    atoms: tuple[tuple[str, tuple[int, ...]], ...]

    def __str__(self) -> str:
        parts = []
        for tag, params in self.atoms:
            parts.append(f"{tag}({','.join(map(str, params))})" if params else tag)
        return " x ".join(parts)

    def build(self, order_cap: int = DEFAULT_ORDER_CAP, atoms=None) -> FiniteGroup:
        """The direct product of the atoms' groups, left to right, within order_cap.

        atoms, if given, are those groups as the caller already built them.
        """
        if atoms is None:
            atoms = []
            for tag, params in self.atoms:
                builder, _ = FAMILY_BUILDERS[tag]
                atoms.append(builder(*params, order_cap=order_cap))
        return reduce(lambda a, b: direct_product(a, b, order_cap=order_cap), atoms)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, message: str):
        raise ParseError(f"{message} at position {self.pos}")

    def take_tag(self) -> str:
        self.skip_ws()
        for tag in _TAGS:
            if self.text.startswith(tag, self.pos):
                self.pos += len(tag)
                return tag
        self.fail("expected a family tag (C, EA, D, Q, M, He, G, H, K, SD, C27Q8)")

    def take_literal(self, ch: str) -> None:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return
        self.fail(f"expected {ch!r}")

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.fail(f"{self.text[self.pos]!r} is not an ASCII digit")
        if self.pos == start:
            self.fail("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than Python's int-to-str digit limit
            digits, self.pos = self.pos - start, start
            self.fail(f"integer of {digits} digits is past Python's int-to-str limit")


def parse_spec(text: str) -> GroupSpec:
    """Parse a group expression; raises ParseError with the failing position."""
    sc = _Scanner(text)
    atoms: list[tuple[str, tuple[int, ...]]] = []
    while True:
        tag = sc.take_tag()
        arity = FAMILY_BUILDERS[tag][1]
        params: tuple[int, ...] = ()
        if arity:
            sc.take_literal("(")
            values = [sc.take_int()]
            for _ in range(arity - 1):
                sc.take_literal(",")
                values.append(sc.take_int())
            sc.take_literal(")")
            params = tuple(values)
        atoms.append((tag, params))
        if sc.eof():
            break
        sc.take_literal("x")
        if sc.eof():
            sc.fail("expected an atom after 'x'")
    return GroupSpec(tuple(atoms))


def build_group(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Parse and construct in one step."""
    return parse_spec(text).build(order_cap)
