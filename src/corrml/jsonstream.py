"""Reading a JSON file one bounded window of its text at a time.

`json.load` holds a file's whole text, and its bytes beside it while they
are decoded, before it parses anything: an inverse model file's 18 MB of
text outweigh the model the parse builds. `load` reads `WINDOW` bytes at a
time and drops the text it has parsed. Objects, and arrays whose first item
is an object or an array, are walked with an explicit stack, so nesting
costs no interpreter recursion; each object goes through the object hook
as it closes, in the order `json.load` calls it. A key, a scalar, or an
array whose first item is neither is decoded whole by the C decoder once
the window holds all of it, which is how a tree's node lists are read. The
value, or the refusal, is the one `json.load` gives for the same file,
except that more than MAX_DEPTH nested containers are refused where
`json.load` runs out of recursion.
"""

import codecs
import io
import re
from json import JSONDecodeError, JSONDecoder
from json.decoder import scanstring

# bytes of file read at a time; a value longer than the text held is read
# into a window that doubles until it holds the whole value
WINDOW = 1 << 15
# open containers refused beyond: corrml's files nest nine deep, and a walk
# of the value (a schema fault's repr, a comparison) recurses once a level
MAX_DEPTH = 256

_WHITESPACE = re.compile(r"[ \t\n\r]*").match
_HELD = re.compile(r"(?:\[[^\]]*\]|(?!\[)[-+.0-9eE]*[^-+.0-9eE])").match
# a key with no escape and its ':', whole in the text: the key as it stands
_PLAIN_KEY = re.compile(r'[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:').match


class _NotUTF8(Exception):
    """Bytes that are not UTF-8: not a ValueError, so that no decode
    retried with more text, nor an array walked after a failed decode,
    reads past them."""


class _Text:
    """The text of a UTF-8 file, newlines translated as text mode does:
    `text` holds what is read and not yet dropped, from character `base`
    of the file on, and `at` is the position in it parsing has reached."""

    def __init__(self, fh):
        self._fh = fh
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        self._decoder = io.IncrementalNewlineDecoder(self._utf8, translate=True)
        self._bytes = 0                     # bytes of the file read
        self._lines, self._newline = 0, -1  # newlines dropped, file offset of the last
        self.text, self.base, self.at, self.next, self.eof = "", 0, 0, 0, False

    def read(self, n: int) -> int:
        """Drop the text before `at`, and read at least `n` more characters,
        or the rest of the file. Returns how many characters were dropped."""
        dropped = self.at
        lines = self.text.count("\n", 0, dropped)
        if lines:
            self._lines += lines
            self._newline = self.base + self.text.rindex("\n", 0, dropped)
        self.base += dropped
        self.text, self.at = self.text[dropped:], 0
        got = 0
        while got < n and not self.eof:
            chunk = self._chunk(max(n - got, WINDOW))
            self.text += chunk
            got += len(chunk)
        return dropped

    def _chunk(self, size: int) -> str:
        """The text of the next `size` bytes of the file, less a character
        they split, which the next chunk begins with."""
        data = self._fh.read(size)
        held = len(self._utf8.getstate()[0])  # bytes of a character the last chunk split
        try:
            chunk = self._decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:
            raise _NotUTF8(_decode_error(exc, self._bytes - held)) from None
        self._bytes += len(data)
        self.eof = not data
        return chunk

    def peek(self, skip: int = 0) -> str:
        """The first character past whitespace from `at + skip` on, '' at
        the end of the file; `next` is left at its position."""
        j = self.at + skip
        if j < len(self.text) and self.text[j] not in " \t\n\r":
            self.next = j
            return self.text[j]
        while True:
            j = _WHITESPACE(self.text, j).end()
            if j < len(self.text) or self.eof:
                self.next = j
                return self.text[j:j + 1]
            j -= self.read(WINDOW)

    def skip(self) -> str:
        """`peek()`, moving `at` to the character it returns."""
        if self.at < len(self.text) and self.text[self.at] not in " \t\n\r":
            return self.text[self.at]
        c = self.peek()
        self.at = self.next
        return c

    def decoded(self, decode):
        """(value, end) of `decode(text, at)`, a C decoder reading one value
        from `at`, tried again with more text until it succeeds or the file
        ends: a failure before the end may be a value the window cut, so only
        the whole rest of the file refuses; a number is read whole first."""
        while True:
            try:
                return decode(self.text, self.at)
            except ValueError:
                if self.eof:
                    raise
            self.read(max(WINDOW, len(self.text) - self.at))

    def where(self, pos: int) -> str:
        """Where text position `pos` is in the file, as JSONDecodeError says it."""
        line = self._lines + self.text.count("\n", 0, pos) + 1
        newline = self.text.rfind("\n", 0, pos)
        column = pos - newline if newline >= 0 else self.base + pos - self._newline
        return f"line {line} column {column} (char {self.base + pos})"


def _decode_error(exc: UnicodeDecodeError, offset: int) -> str:
    """`exc`'s message, its positions moved by `offset` bytes into the file."""
    start, end = offset + exc.start, offset + exc.end
    if end - start == 1:
        return (f"'{exc.encoding}' codec can't decode byte 0x{exc.object[exc.start]:02x} "
                f"in position {start}: {exc.reason}")
    return f"'{exc.encoding}' codec can't decode bytes in position {start}-{end - 1}: {exc.reason}"


def _string(text: str, at: int):
    """(string, end) of the JSON string whose quote is at `at`."""
    return scanstring(text, at + 1)


def _key(text: _Text, memo: dict) -> str:
    """The key at the next character and its ':', consumed; each distinct
    key is kept once."""
    plain = _PLAIN_KEY(text.text, text.at)
    if plain:
        text.at = plain.end()
        key = plain[1]
        return memo.setdefault(key, key)
    if text.skip() != '"':
        raise JSONDecodeError("Expecting property name enclosed in double quotes",
                              text.text, text.at)
    key, text.at = text.decoded(_string)
    if text.skip() != ":":
        raise JSONDecodeError("Expecting ':' delimiter", text.text, text.at)
    text.at += 1
    return memo.setdefault(key, key)


def _value(text: _Text, decode, object_hook):
    """The JSON value from `at` on, consumed."""
    stack = []      # the open containers, innermost last, as [container, key]
    memo = {}
    while True:
        c = text.skip()
        opens = c == "{" or c == "["
        if opens and len(stack) == MAX_DEPTH:
            raise JSONDecodeError(f"More than {MAX_DEPTH} nested containers",
                                  text.text, text.at)
        first = text.peek(1) if opens else ""
        if c + first in ("{}", "[]"):
            text.at = text.next + 1
            value = {} if c == "{" else []
            if c == "{" and object_hook is not None:
                value = object_hook(value)
        elif c == "{" or first in ("{", "["):
            text.at += 1
            stack.append([{}, _key(text, memo)] if c == "{" else [[], None])
            continue
        else:
            # a scalar, or an array whose first item is one, decoded whole
            # (an array without the hook) once read up to a number's end or
            # the array's first ']'; such an array is walked item by item if
            # it holds an object, nests too deep for the C decoder, or refuses
            while not (text.eof or _HELD(text.text, text.at)):
                text.read(max(WINDOW, len(text.text) - text.at))
            try:
                value, end = text.decoded(decode)
            except (ValueError, RecursionError):
                if c != "[":
                    raise
                end = None
            if c == "[" and (end is None or text.text.find("{", text.at, end) >= 0):
                text.at += 1
                stack.append([[], None])
                continue
            text.at = end
        # the value is whole: add it to its container, and close what it closes
        while True:
            if not stack:
                return value
            frame = stack[-1]
            container, key = frame
            if key is None:
                container.append(value)
            else:
                container[key] = value
            c = text.skip()
            if c == ",":
                text.at += 1
                if key is not None:
                    frame[1] = _key(text, memo)
                break
            if c != ("]" if key is None else "}"):
                raise JSONDecodeError("Expecting ',' delimiter", text.text, text.at)
            text.at += 1
            stack.pop()
            value = container
            if key is not None and object_hook is not None:
                value = object_hook(container)


def load(fh, object_hook=None, **options):
    """The JSON value in the binary file `fh`, decoded as UTF-8 with
    `JSONDecoder(**options)`, each object passed through `object_hook` as
    it closes. A file `json.load` refuses raises ValueError with its message
    and position in the file, as do text that is not UTF-8 and more than
    MAX_DEPTH nested containers."""
    text = _Text(fh)
    try:
        text.read(1)
        if text.text.startswith("\ufeff"):
            raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text.text, 0)
        value = _value(text, JSONDecoder(**options).raw_decode, object_hook)
        if text.skip():
            raise JSONDecodeError("Extra data", text.text, text.at)
    except JSONDecodeError as exc:
        raise ValueError(f"{exc.msg}: {text.where(exc.pos)}") from None
    except _NotUTF8 as exc:
        raise ValueError(str(exc)) from None
    return value
