"""Tokenizer for the SQL subset."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class SqlSyntaxError(ValueError):
    """Raised for malformed SQL text."""


class TokenType(enum.Enum):
    """Lexical categories of the SQL subset."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    END = "end"


KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "LIMIT", "AS", "DISTINCT",
    # Mutation statements (the live data plane).
    "INSERT", "INTO", "VALUES", "DELETE", "UPDATE", "SET", "NULL",
})

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<identifier>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>'(?:[^']|'')*')
  | (?P<operator><=|>=|<>|!=|=|<|>|\+|-|\*|/)
  | (?P<punctuation>[(),.;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its position (for error messages)."""

    type: TokenType
    text: str
    position: int

    def matches(self, token_type: TokenType, text: str | None = None) -> bool:
        if self.type is not token_type:
            return False
        if text is None:
            return True
        if token_type is TokenType.KEYWORD:
            return self.text.upper() == text.upper()
        return self.text == text


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on unexpected characters."""
    tokens: list[Token] = []
    position = 0
    length = len(sql)
    while position < length:
        match = _TOKEN_PATTERN.match(sql, position)
        if match is None:
            raise SqlSyntaxError(
                f"unexpected character {sql[position]!r} at position {position}")
        position = match.end()
        if match.lastgroup == "space":
            continue
        text = match.group()
        if match.lastgroup == "number":
            tokens.append(Token(TokenType.NUMBER, text, match.start()))
        elif match.lastgroup == "identifier":
            token_type = TokenType.KEYWORD if text.upper() in KEYWORDS else TokenType.IDENTIFIER
            tokens.append(Token(token_type, text, match.start()))
        elif match.lastgroup == "string":
            tokens.append(Token(TokenType.STRING, text, match.start()))
        elif match.lastgroup == "operator":
            tokens.append(Token(TokenType.OPERATOR, text, match.start()))
        else:
            tokens.append(Token(TokenType.PUNCTUATION, text, match.start()))
    tokens.append(Token(TokenType.END, "", length))
    return tokens
