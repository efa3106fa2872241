"""Canonical JSON and CSV writers and the one JSON reader.

json dumps always sort keys and strip spaces, so equal inputs serialize to
identical bytes; csv rows always use bare newlines.  ``load_json`` turns
every way a document can fail to load into a ParseError.
"""

from __future__ import annotations

import csv
import json

from .errors import ParseError


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj):
    with open(path, "w", newline="") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def write_jsonl(path, rows):
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(dumps_canonical(row))
            fh.write("\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax, non-UTF-8 bytes and over-long integers.
        raise ParseError("invalid JSON: %s" % exc) from None
