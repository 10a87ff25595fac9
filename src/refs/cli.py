"""Command-line front end: add references by DOI, render, export, cross-reference.

Exit codes are stable for scripting:
  0  success
  1  invalid DOI
  2  resolution failed, unknown entry, or nothing to export
  3  store or filesystem error, including a stored entry that cannot be read
  64 usage or configuration error, including an argument argparse refuses
Commands raise; ``main`` maps each error to its code once (``_EXIT_CODES``).
Diagnostics go to stderr; stdout carries data only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sqlite3
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InvalidDoiError, MissingEntryError, RefsError, StoreError
from .formats import RenderFormat
from .store import _INT64_MAX, _INT64_MIN, RefStore, _storable, check_crossref_key

# Only `add` makes requests or parses a DOI, so only it imports pipeline,
# resolvers, transport and identifiers; the other commands start without them.
if TYPE_CHECKING:
    from .resolvers import AdsConfig
    from .transport import Transport

DB_ENV = "REFS_DB"
FIXTURES_ENV = "REFS_FIXTURES"
DEFAULT_DB = "refs.db"

EXIT_OK = 0
EXIT_INVALID_DOI = 1
EXIT_RESOLUTION = 2
EXIT_STORE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


# The exit code of an error that reaches ``main``, first match wins.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    MissingEntryError: EXIT_RESOLUTION,  # a StoreError, so before StoreError
    StoreError: EXIT_STORE,
    sqlite3.Error: EXIT_STORE,
    OSError: EXIT_STORE,
    InvalidDoiError: EXIT_INVALID_DOI,  # the user's --doi: an upstream one is a decode error
    RefsError: EXIT_RESOLUTION,
}


def _err(message: str) -> None:
    print(f"refs: {message}", file=sys.stderr)


def _int64(text: str) -> int:
    """An integer argument that SQLite can bind: a signed 64-bit one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise argparse.ArgumentTypeError(f"{text} is outside the signed 64-bit range")
    return value


def _text(text: str) -> str:
    """A text argument SQLite can store: argv bytes that are not UTF-8 decode to lone surrogates."""
    if not _storable(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not UTF-8 text")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: it keeps no state between parses, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="refs",
        description="Turn DOIs into consistently formatted bibliography entries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--db",
        default=None,
        help=f"reference database file (default: ${DB_ENV} or {DEFAULT_DB})",
    )

    net = argparse.ArgumentParser(add_help=False)
    net.add_argument(
        "--offline",
        action="store_true",
        help="replay recorded fixtures instead of performing HTTP",
    )
    net.add_argument(
        "--fixtures",
        default=None,
        help=f"directory of fixture archives (default: ${FIXTURES_ENV})",
    )
    net.add_argument(
        "--record-fixtures",
        default=None,
        metavar="ARCHIVE",
        help="record live exchanges into a fixture archive (live mode only)",
    )

    p_add = sub.add_parser(
        "add", parents=[common, net], help="resolve a DOI (or free-text query) and store it"
    )
    p_add.add_argument("--doi", help="DOI of the work to reference")
    p_add.add_argument(
        "--query", type=_text, help="free-text search instead of a DOI (marked unverified)"
    )
    p_add.add_argument("--note", type=_text, help="curation note stored and rendered with the entry")
    p_add.set_defaults(func=cmd_add)

    p_render = sub.add_parser("render", parents=[common], help="print one stored entry")
    p_render.add_argument("id", type=_int64)
    p_render.add_argument(
        "--format",
        choices=[f.value for f in RenderFormat],
        default=RenderFormat.TEXT.value,
    )
    p_render.set_defaults(func=cmd_render)

    p_export = sub.add_parser(
        "export", parents=[common], help="write the HTML and .bib bibliography bundle"
    )
    p_export.add_argument("ids", nargs="*", type=_int64)
    p_export.add_argument("--all", action="store_true", help="export every stored entry")
    p_export.add_argument("-o", "--out-dir", default=".")
    p_export.set_defaults(func=cmd_export)

    p_crossref = sub.add_parser(
        "crossref", parents=[common], help="map a dataset-local integer onto a global ID"
    )
    p_crossref.add_argument("scope", type=_text)
    p_crossref.add_argument("parameter", type=_text)
    p_crossref.add_argument("local_id", type=_int64)
    p_crossref.add_argument("global_id", type=_int64)
    p_crossref.set_defaults(func=cmd_crossref)

    p_list = sub.add_parser("list", parents=[common], help="list stored entries")
    p_list.add_argument(
        "--scope", type=_text, help="only entries cross-referenced in this dataset scope"
    )
    p_list.set_defaults(func=cmd_list)

    return parser


def _open_store(args) -> RefStore:
    return RefStore(args.db or os.environ.get(DB_ENV) or DEFAULT_DB)


def _build_transport(args) -> Transport:
    from .transport import FixtureTransport, LiveTransport

    if not args.offline:
        return LiveTransport()
    fixtures = args.fixtures or os.environ.get(FIXTURES_ENV)
    if not fixtures:
        raise UsageError("offline mode needs --fixtures or REFS_FIXTURES")
    if args.record_fixtures:
        raise UsageError("--record-fixtures only makes sense in live mode")
    return FixtureTransport.from_dir(fixtures)


def _build_ads_config(args) -> AdsConfig:
    from .resolvers import AdsConfig

    cfg = AdsConfig.from_env()
    if not args.offline and (problem := cfg.token_problem()):
        raise UsageError(problem)
    return cfg


def cmd_add(args) -> int:
    from .identifiers import parse_doi
    from .pipeline import _add_doi, _add_query
    from .resolvers import Upstream
    from .transport import _archive_entries, write_archive

    if bool(args.doi) == bool(args.query):
        raise UsageError("pass exactly one of --doi or --query")
    if args.query is not None and not args.query.strip():
        raise UsageError("--query needs text that is not blank")
    upstream = Upstream(_build_transport(args), _build_ads_config(args))
    doi = parse_doi(args.doi) if args.doi else None
    archive = Path(args.record_fixtures) if args.record_fixtures else None
    if archive and not os.access(archive.parent, os.W_OK):  # else the entry is stored unrecorded
        raise OSError(f"cannot record into {archive}: its directory is missing or read-only")
    kept = _archive_entries(archive) if archive and archive.exists() else []

    try:
        with _open_store(args) as store:
            if doi is not None:
                gid, report = _add_doi(doi, args.note, store, upstream)
            else:
                gid, report = _add_query(args.query, args.note, store, upstream)
    finally:
        if archive and upstream.exchanges:
            write_archive(archive, kept, upstream.exchanges)
    for warning in report.warnings:
        _err(f"warning: {warning}")
    suffix = " unverified" if report.unverified else ""
    print(f"id={gid} path={report.path_taken.value}{suffix}")
    return EXIT_OK


def cmd_render(args) -> int:
    with _open_store(args) as store:
        rendered = store.get_rendered(args.id, RenderFormat(args.format))
    print(rendered.body)
    return EXIT_OK


def cmd_export(args) -> int:
    if args.all == bool(args.ids):
        raise UsageError("pass entry IDs or --all, not both or neither")
    with _open_store(args) as store:
        paths = store.export_bundle(None if args.all else args.ids, args.out_dir)
    print(*paths, sep="\n")
    return EXIT_OK


def cmd_crossref(args) -> int:
    try:
        check_crossref_key(args.scope, args.parameter, args.local_id, args.global_id)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _open_store(args) as store:
        store.attach_crossref(args.scope, args.parameter, args.local_id, args.global_id)
    return EXIT_OK


# Each character ``str.splitlines`` breaks at, and the tab, which a label prints as a
# space: one entry, one line of two tab-separated fields.
_ONE_FIELD = str.maketrans(dict.fromkeys("\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029", " "))


def cmd_list(args) -> int:
    with _open_store(args) as store:
        labels = store.list_labels(scope=args.scope)
    for gid, label in labels:
        print(f"{gid}\t{label.translate(_ONE_FIELD)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if exc.code != 2:  # --help exits 0
            raise
        return EXIT_USAGE  # argparse refused an argument and has said why
    except tuple(_EXIT_CODES) as exc:
        _err(str(exc))
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
