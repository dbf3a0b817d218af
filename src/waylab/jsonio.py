"""JSON text of schemes and certificates: the one writer and the strict reader.

:func:`text_pieces` writes ``json.dumps(obj.to_dict(), indent=indent)`` from
the object's own values, as pieces that ``to_json`` joins once and the CLI
writes in turn, each run of neighbouring sectors equal in bits formatting
its row once.  :func:`read_vectors`, behind ``ApproxScheme.from_json``,
cuts each sector array out at its key and its last ``]``, splits it at its
colons into label and row texts, checks them against the writer's template,
parses the labels with one ``json.loads`` and the distinct row texts with
another, and ends in ``GradedVector._fill`` as ``from_dict`` does.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from .graded import GradedVector, _integers, _nonzero_rows, _number_array

#: ``json``'s spelling of the non-finite floats, keyed by ``str(value)``.
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: The bytes a JSON number is spelled with.
_NUMBER_BYTES = b"0123456789.eE+-"

#: Most bytes the strict reader scans in one array operation, which bounds its temporaries.
_SCAN = 2**20


def text_pieces(value, indent=None):
    """Pieces of ``json.dumps(tree, indent=indent)``, ``tree`` being ``value`` in JSON form.

    ``indent`` follows ``json``.  A dict becomes an object, a
    :class:`~waylab.graded.GradedVector` its ``to_dict``, a 1-D float
    array its ``tolist``, a list of scalars an array; anything else goes
    through ``json.dumps``.  An object splices in its members' pieces unjoined.
    """
    if indent is not None and not isinstance(indent, str):
        indent = " " * indent
    return _pieces(value, indent, 0)


def _pieces(value, indent, depth):
    """Pieces of ``value`` (see :func:`text_pieces`) written at nesting ``depth``."""
    if isinstance(value, dict):
        members = [(key, _pieces(item, indent, depth + 1)) for key, item in value.items()]
        return _json_object(members, indent, depth)
    if isinstance(value, GradedVector):
        rows = np.flatnonzero(_nonzero_rows(value._amps))
        sectors = _sector_array(value.d, rows + value._lo, value._amps[rows], indent, depth + 1)
        return _json_object([("d", [str(value.d)]), ("sectors", sectors)], indent, depth)
    if isinstance(value, np.ndarray):
        return [_json_array(_json_floats(value), indent, depth)]
    if isinstance(value, list):
        return [_json_array(list(map(json.dumps, value)), indent, depth)]
    return [json.dumps(value)]


def _sector_parts(d, ind, depth):
    """%-template of one sector of a vector at ``depth``, cut at its label: ``(before, after)``.

    ``ind`` is ``None`` or the indent string with ``%`` doubled; the ``2 d``
    floats are ``%s`` slots of ``after``, in the order of ``to_dict``.  The
    cut is made where the label's piece sits, never by searching for a
    slot, which a doubled indent may spell.
    """
    pair = _json_array(["%s", "%s"], ind, depth + 4)
    amp = _json_array([pair] * d, ind, depth + 3)
    pieces = _json_object([("nu", [None]), ("amp", [amp])], ind, depth + 2)
    cut = pieces.index(None)
    return "".join(pieces[:cut]), "".join(pieces[cut + 1 :])


def _sector_array(d, labels, amps, indent, depth):
    """Pieces of the ``sectors`` array at ``depth`` of sectors ``labels``, rows ``amps`` ``(k, d)``.

    Rows are compared with their neighbours by ``int64`` bits, so a
    ``0.0``/``-0.0`` twin or another NaN payload starts a new run.  Where
    runs average two rows or more, the text after the label of each run's
    row (its amplitudes, the separator and the next ``"nu":``) is formatted
    once, and each run is one piece: its labels, each followed by that
    text.  Otherwise one %-template per sector is filled from flat lists of
    labels and float texts, one piece for the whole array.
    """
    k = len(labels)
    if not k:
        return ["[]"]
    # '%' in the indent string must not read as a conversion
    ind = None if indent is None else indent.replace("%", "%%")
    before, after = _sector_parts(d, ind, depth - 1)
    bits = amps.view(np.int64)
    new = np.empty(k, dtype=bool)
    new[0], new[1:] = True, (bits[1:] != bits[:-1]).any(axis=1)
    w = 2 * d  # floats per row
    # kept as two paths: a piece per run is slower on short runs, a template per sector on long
    if 2 * np.count_nonzero(new) > k:  # runs of fewer than two rows on average
        values = _json_floats(amps.view(np.float64).ravel())
        args = [None] * (k * (w + 1))
        args[:: w + 1] = labels.tolist()
        for j in range(w):
            args[j + 1 :: w + 1] = values[j::w]
        return [_json_array([before + "%s" + after] * k, ind, depth) % tuple(args)]
    values = _json_floats(amps[new].view(np.float64).ravel())
    texts = [after % tuple(values[j : j + w]) for j in range(0, len(values), w)]
    brk = "" if indent is None else "\n" + indent * (depth + 1)
    close = "]" if indent is None else "\n" + indent * depth + "]"
    before = before % ()  # the indent as it is
    joint = (", " if indent is None else "," + brk) + before
    starts = [*np.flatnonzero(new).tolist(), k - 1]  # the last label is written apart
    labels = labels.tolist()
    pieces = ["[" + brk + before]
    for text, a, b in zip(texts, starts, starts[1:]):
        # a NUL after each label, which no label text holds, becomes its run's text
        pieces.append(("%d\0" * (b - a) % tuple(labels[a:b])).replace("\0", text + joint))
    pieces.append(f"{labels[-1]}{texts[-1]}{close}")
    return pieces


def _json_floats(values):
    """Texts of the entries of a 1-D float array as ``json.dumps`` writes them.

    Each distinct bit pattern is formatted once (``-0.0`` and ``0.0`` stay
    apart), which skips most of the work on arrays of repeated values.
    """
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = map(float.__repr__, bits.view(np.float64).tolist())
    return np.array([_JSON_CONSTANTS.get(t, t) for t in texts], dtype=object)[where].tolist()


def _json_array(items, indent, depth):
    """JSON array of the item texts, laid out as ``json.dumps`` does at ``depth``."""
    if not items:
        return "[]"
    if indent is None:
        return "[" + ", ".join(items) + "]"
    brk = "\n" + indent * (depth + 1)
    return "[" + brk + ("," + brk).join(items) + "\n" + indent * depth + "]"


def _json_object(members, indent, depth):
    """Pieces of a JSON object laid out as ``json.dumps`` does at ``depth``.

    ``members`` are ``(key, pieces)`` pairs, each value already written as
    a list of pieces, which are spliced in as they are, not joined.
    """
    brk = "" if indent is None else "\n" + indent * (depth + 1)
    sep = ", " if indent is None else "," + brk
    pieces = ["{" + brk]
    for j, (key, value) in enumerate(members):
        pieces.append(f'{sep if j else ""}"{key}": ')
        pieces += value
    pieces.append("}" if indent is None else "\n" + indent * depth + "}")
    return pieces


@lru_cache(maxsize=32)
def _sector_layout(d, indent):
    """Fixed bytes of the ``sectors`` array of a top-level vector, as written, cut at each ``:``.

    Cut there, the array is a head, label and row texts in turn, and a
    tail: a label between the rest of ``"nu":`` and ``"amp"``, the ``2 d``
    numbers of a sector between the rest of ``"amp":`` and the next
    ``"nu"``.  Returns ``(head, tail, close, label, row)``: the bytes before
    the first ``:`` and after the last number; those after a row's numbers
    when a sector follows, as written; and the units (see :func:`_numbers`)
    of a label and of a row, without spaces if indented.
    """
    row = "%s".join(_sector_parts(d, indent, 1))
    pieces = [p.encode() for p in _json_array([row, row], indent, 2).split("%s")]
    seps = pieces[1 : 2 * d + 2]
    (after_label, before_row), (close, before_label) = (s.split(b":") for s in seps[:: 2 * d])
    label = [before_label, b"", after_label, None]
    row = [before_row, b"".join(seps[1:-1]), close, seps[2] if d > 1 else None]
    if indent is not None:
        label, row = ([p and p.replace(b" ", b"") for p in ps] for ps in (label, row))
    units = [(lead, lead + inner + trail, trail, pair) for lead, inner, trail, pair in (label, row)]
    return pieces[0].split(b":")[0], pieces[-1], close, *units


def _spaces_follow_indents(piece):
    """Whether each space in ``piece`` follows a newline, a colon or a space, as when indented.

    The bytes are scanned in runs of ``_SCAN``, which bounds the temporaries.
    """
    codes = np.frombuffer(piece, np.uint8)
    for i in range(0, len(codes), _SCAN):
        run = codes[i : i + _SCAN + 1]
        space = run == ord(" ")
        if np.any(space[1:] > (space | (run == ord("\n")) | (run == ord(":")))[:-1]):
            return False
    return True


def _numbers(texts, unit, width, indent):
    """The numbers of ``texts`` joined by ``:``, each laid out as ``unit``.

    A unit is ``(lead, skeleton, trail, pair)``: the fixed bytes before its
    first slot, all of them, those after its last slot, and the separator
    of two pairs of a row (``None`` for a label).  Returns the ``width``
    numbers of each text in order; ``None`` unless the text is that layout
    with number bytes in each slot: with them deleted it must repeat the
    skeleton, and each fixed run between slots (searched for without its
    last spaces and newlines, over which a search crawls) becomes a comma
    and spaces, so one ``json.loads`` sees any fixed byte out of place and
    applies the JSON number grammar.  An indented text is read without its
    spaces, each of which must follow a newline, a colon or a space, so
    that deleting them joins no two parts of a number: a check against the
    skeleton with its spaces kept would not see an indent's space moved
    into a number, as in ``0 .0``.
    """
    lead, skeleton, trail, pair = unit
    text = b":".join(texts)
    if indent is not None and _spaces_follow_indents(text):
        text = text.translate(None, b" ")  # or the spaces stay, which no skeleton holds
    if not (text.startswith(lead) and text.endswith(trail)):
        return None
    period = skeleton + b":"
    skeleton = text.translate(None, _NUMBER_BYTES) + b":"
    count = len(skeleton) // len(period)
    if skeleton != period * count:
        return None
    # each fixed run is replaced whole: one translate of its bytes to spaces would read
    # "], 0.0[, 0.0]]}" as numbers, a number moved across a bracket
    for sep in (sep.rstrip(b" \n") for sep in (trail + b":" + lead, pair) if sep):
        text = text.replace(sep, b"," + b" " * (len(sep) - 1))
    body = memoryview(text)[len(lead) : len(text) - len(trail)]
    try:
        numbers = json.loads(b"".join((b"[", body, b"]")))
    except ValueError:
        return None
    return numbers if len(numbers) == count * width else None


def _sector_rows(raw, a, b, d, indent):
    """``(labels, amps)`` of ``raw[a:b]``, a vector's ``sectors`` array in the writer's layout.

    ``labels`` is a list of ``k`` labels and ``amps`` a ``(k, d, 2)`` array,
    or ``None`` (see :func:`_numbers`).  One ``split`` at the colons gives
    the label and row texts (see :func:`_sector_layout`), which are parsed
    apart: the rows as their distinct texts (``dict.fromkeys``), each once,
    since equal texts give equal bits.  These are broadcast if one is
    distinct, gathered back by index if some repeat, and kept as parsed if
    none does.
    """
    if b - a == 2 and raw.startswith(b"[]", a):
        return [], np.zeros((0, d, 2))
    if 4 * d * (1 + len(indent or "")) > b - a:
        return None  # shorter than one sector's 2d numbers: also bounds the template d asks for
    head, tail, close, label, row = _sector_layout(d, indent)
    parts = raw[a:b].split(b":")  # the slice is freed at once
    rows, k = parts[2::2], len(parts) // 2
    if not k or len(parts) != 2 * k + 1 or parts[0] != head or not rows[-1].endswith(tail):
        return None
    rows[-1] = rows[-1][: len(rows[-1]) - len(tail)] + close
    index = dict.fromkeys(rows)
    labels = _numbers(parts[1::2], label, 1, indent)
    amps = _numbers(index, row, 2 * d, indent)
    if labels is None or amps is None:
        return None
    try:
        amps = _number_array(amps).reshape(-1, d, 2)
    except (ValueError, OverflowError):
        return None
    if len(index) == 1 < k:
        amps = np.broadcast_to(amps, (k, d, 2))  # read-only: _fill copies it
    elif len(index) < k:
        index = dict(zip(index, range(len(index))))
        amps = amps[np.fromiter(map(index.__getitem__, rows), np.intp, k)]
    return labels, amps


def read_vectors(text, names):
    """Read a JSON object whose last members ``names`` are graded vectors in the writer's layout.

    Returns ``(header, vectors)``: ``header`` is the parsed object with each
    vector's ``sectors`` emptied, and ``vectors`` maps each name to the
    :class:`~waylab.graded.GradedVector` that ``GradedVector.from_dict``
    reads from ``json.loads(text)``.  The text must be a ``str`` that
    ``json.dumps`` writes for such an object, compact or indented by
    spaces, with each ``sectors`` array in the layout of
    :func:`text_pieces` (any JSON numbers in its slots), then optional
    spaces and newlines; otherwise, or if a vector cannot be read, the
    result is ``None``.  The ``k``-th array is read as the vector
    ``names[k]``, so the caller checks the order of the header's members.

    The header is parsed by ``json.loads`` with each array cut out, from
    its key to its last ``]``, and must be what ``json.dumps`` writes for
    it.  Each array must be its layout's fixed bytes
    with a run of number bytes in each slot, parsed (see
    :func:`_sector_rows`) by json's own scanner, which applies the JSON
    number grammar and float rounding; each distinct row text is parsed
    once.  Labels and rows go through ``_integers``,
    ``_number_array`` and ``_fill`` as in ``from_dict``.
    """
    if not isinstance(text, str):
        return None
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    indent = None
    if raw.startswith(b"{\n"):
        indent = raw[2 : raw.find(b'"')].decode()
        if indent.strip(" "):
            return None
    elif not raw.startswith(b'{"'):
        return None
    # each array runs from its key to the last "]" before the next key, the last
    # one to the last "]" of the text; a key is searched for without its closing
    # space, as a search for a space is slow
    end = len(raw)
    while raw.endswith((b" ", b"\n"), 0, end):
        end -= 1
    keys = [raw.find(b'"sectors":')]
    for _ in names[1:]:
        keys.append(raw.find(b'"sectors":', keys[-1] + 11))
    cuts = [(a + 11, raw.rfind(b"]", a + 11, b) + 1) for a, b in zip(keys, keys[1:] + [end])]
    if min(keys) < 0 or any(b <= a for a, b in cuts):
        return None
    spans = [0, *(x for cut in cuts for x in cut), end]
    outline = b"[]".join(raw[spans[j] : spans[j + 1]] for j in range(0, len(spans), 2))
    try:
        header = json.loads(outline)
    except (ValueError, RecursionError):
        return None
    if type(header) is not dict or json.dumps(header, indent=indent).encode() != outline:
        return None
    vectors = {}
    for name, (a, b) in zip(names, cuts):
        member = header.get(name)
        if type(member) is not dict or list(member) != ["d", "sectors"] or member["sectors"]:
            return None
        d = member["d"]
        if type(d) is not int or d < 1:
            return None
        found = _sector_rows(raw, a, b, d, indent)
        if found is None:
            return None
        try:
            labels = _integers(found[0], "sector label 'nu'")
            vectors[name] = GradedVector._from_pairs(d, labels, found[1])
        except (ValueError, OverflowError):
            return None
    return header, vectors


def read_fields(data, parsers, kind):
    """``{name: parse(data[name])}`` over ``parsers``; ``ValueError`` names a bad ``kind`` field."""
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} must be a JSON object")
    fields = {}
    for name, parse in parsers.items():
        if name not in data:
            raise ValueError(f"{kind} field {name!r} is missing")
        try:
            fields[name] = parse(data[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} field {name!r}: {exc}") from None
    return fields
