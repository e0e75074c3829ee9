"""Command-line interface over serialised traces.

RPRISM's workflow is offline: traces are captured (and segmented) to disk
while the program runs, then analysed later.  This CLI covers that side::

    python -m repro.analysis.cli info  trace.jsonl
    python -m repro.analysis.cli views trace.jsonl
    python -m repro.analysis.cli engines
    python -m repro.analysis.cli diff  old.jsonl new.jsonl \\
        [--engine optimized] [--config window=8 --config relaxed=false]
    python -m repro.analysis.cli analyze --suspected-old old_bad.jsonl \\
        --suspected-new new_bad.jsonl [--expected-old ... --expected-new ...]
        [--regression-left ... --regression-right ...] [--mode intersect]
    python -m repro.analysis.cli store add|list|show|tag|rm DIR ...
    python -m repro.analysis.cli store diff DIR KEY1 [KEY2] \\
        [--against-baseline TAG] [--engine ...]
    python -m repro.analysis.cli store migrate DIR
    python -m repro.analysis.cli batch scenarios.json --store DIR \\
        [--jobs 4]
    python -m repro.analysis.cli cache stats|prune|clear DIR ...
    python -m repro.analysis.cli index build|stats|compact DIR
    python -m repro.analysis.cli query DIR [--tag T] [--scenario S] \\
        [--digest-prefix HEX] [--since WHEN] [--similar KEY] [--json]
    python -m repro.analysis.cli serve DIR [--host H] [--port P] \\
        [--workers N]

``index``/``query`` read the store's persistent catalog
(:mod:`repro.index`, maintained automatically on save/tag/delete;
``index build`` backfills it for legacy stores), ``serve`` boots the
long-running JSON-over-HTTP service (:mod:`repro.service`), and
``store migrate`` rewrites a store's legacy text (v1/v2) trace files
as binary v3 in place (idempotent).  Every command that opens a store
converts a flat one (``store.json`` and trace files at the root) to
the sharded layout first; ``store migrate`` reports what that moved.

Stored-trace differencing (``store diff``, ``batch``) memoises results
in a ``diffcache`` directory beside the store (``--no-cache`` bypasses,
``--cache DIR`` relocates); plain ``diff`` caches only when given an
explicit ``--cache DIR``.

Differencing is routed through the :mod:`repro.api.engines` registry
(``--engine`` accepts any registered name), and the view-diff knobs of
:class:`~repro.core.view_diff.ViewDiffConfig` are exposed as repeatable
``--config KEY=VALUE`` flags.  ``engines`` lists every registered
engine and whether its results are cacheable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.api.engines import available_engines, get_engine, is_cacheable
from repro.api.pipeline import StoredScenarioJob, run_pipeline
from repro.api.session import Session
from repro.api.store import INDEX_NAME, SHARDS_DIR, TraceStore
from repro.cache import DiffCache, cached_engine_diff
from repro.analysis.report import render_diff_report, render_trace_tree
from repro.analysis.serialize import load_trace
from repro.core.regression import (MODE_INTERSECT, MODE_SUBTRACT,
                                   analyze_regression)
from repro.core.view_diff import ViewDiffConfig
from repro.core.views import ViewType
from repro.core.web import ViewWeb

#: ``--config`` keys -> ViewDiffConfig fields (computed, so new knobs
#: are exposed without touching the CLI).
_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ViewDiffConfig)}


def _coerce_config_value(key: str, raw: str):
    if key == "view_types":
        types = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                types.append(ViewType[part.upper()])
            except KeyError:
                names = ", ".join(t.name.lower() for t in ViewType)
                raise SystemExit(f"unknown view type {part!r} "
                                 f"(expected one of: {names})")
        return tuple(types)
    if raw.lower() in ("none", "null"):
        return None
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"--config {key} expects an integer, boolean or "
                         f"'none', got {raw!r}")


def parse_config_flags(pairs: list[str] | None) -> ViewDiffConfig | None:
    """``KEY=VALUE`` flags -> a ViewDiffConfig (None when no flags)."""
    if not pairs:
        return None
    knobs = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise SystemExit(f"--config expects KEY=VALUE, got {pair!r}")
        if key not in _CONFIG_FIELDS:
            known = ", ".join(sorted(_CONFIG_FIELDS))
            raise SystemExit(f"unknown view-diff knob {key!r} "
                             f"(known: {known})")
        knobs[key] = _coerce_config_value(key, raw.strip())
    return dataclasses.replace(ViewDiffConfig(), **knobs)


def _engine_name(args) -> str:
    return args.engine or "views"


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=available_engines(),
                        help="differencing engine (registry name)")
    parser.add_argument("--config", action="append", metavar="KEY=VALUE",
                        help="view-diff knob, e.g. --config window=8 "
                             "--config relaxed=false (repeatable)")


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="diff cache directory (default: the "
                             "'diffcache' directory beside the trace "
                             "store, when the command has one)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the diff cache entirely")


def _resolve_cache(args, store_path: str | None = None) -> DiffCache | None:
    """The cache a command should use: ``--no-cache`` wins, then an
    explicit ``--cache DIR``, then the store's sidecar directory."""
    if args.no_cache:
        return None
    if args.cache:
        return DiffCache(args.cache)
    if store_path is not None:
        return DiffCache(Path(store_path) / "diffcache")
    return None


def _diff(left_path: str, right_path: str, engine: str,
          config: ViewDiffConfig | None,
          cache: DiffCache | None = None):
    left = load_trace(left_path)
    right = load_trace(right_path)
    return cached_engine_diff(cache, get_engine(engine), left, right,
                              config=config)


def cmd_info(args) -> int:
    trace = load_trace(args.trace)
    print(f"trace {trace.name or args.trace}: {len(trace)} entries, "
          f"{len(trace.thread_ids())} thread(s)")
    for kind, count in sorted(trace.event_kinds().items()):
        print(f"  {kind:8} {count}")
    if args.tree:
        print(render_trace_tree(trace, limit=args.limit))
    return 0


def cmd_views(args) -> int:
    trace = load_trace(args.trace)
    web = ViewWeb(trace)
    counts = web.counts()
    breakdown = ", ".join(
        f"{count} {kind.replace('_', '-')}"
        for kind, count in counts.items() if kind != "total")
    print(f"{counts['total']} views: {breakdown}")
    for view in sorted(web.all_views(),
                       key=lambda v: -len(v.indices))[:args.limit]:
        print(f"  {view.name.vtype.value:3} {str(view.name.key):40} "
              f"{len(view)} entries")
    return 0


def cmd_engines(args) -> int:
    """List registered diff engines and whether each is cacheable."""
    names = available_engines()
    width = max(len(name) for name in names)
    print(f"{len(names)} registered engine(s):")
    for name in names:
        engine = get_engine(name)
        flags = "cacheable" if is_cacheable(engine) else "-"
        print(f"  {name:{width}}  {flags}")
    return 0


def cmd_diff(args) -> int:
    left = load_trace(args.left)
    right = load_trace(args.right)
    config = parse_config_flags(args.config)
    result = cached_engine_diff(_resolve_cache(args),
                                get_engine(_engine_name(args)),
                                left, right, config=config)
    print(render_diff_report(result, max_sequences=args.limit))
    return 0 if result.num_diffs() == 0 else 1


def cmd_analyze(args) -> int:
    engine = _engine_name(args)
    config = parse_config_flags(args.config)
    suspected = _diff(args.suspected_old, args.suspected_new, engine,
                      config)
    expected = None
    if args.expected_old and args.expected_new:
        expected = _diff(args.expected_old, args.expected_new, engine,
                         config)
    regression = None
    if args.regression_left and args.regression_right:
        regression = _diff(args.regression_left, args.regression_right,
                           engine, config)
    report = analyze_regression(suspected, expected=expected,
                                regression=regression, mode=args.mode)
    print(report.render(limit=args.limit))
    return 0


# -- store ------------------------------------------------------------------


def cmd_store_add(args) -> int:
    store = TraceStore(args.store)
    record = store.ingest_file(args.trace, key=args.key,
                               tags=tuple(args.tag or ()),
                               dedup=args.dedup,
                               scenario=args.scenario)
    if args.dedup and args.key and record.key != args.key:
        print(f"dedup: identical content already stored as "
              f"{record.key!r}")
    print(record.brief())
    return 0


def cmd_store_list(args) -> int:
    store = _open_store(args.store)
    records = store.records(tag=args.tag)
    for record in records:
        print(record.brief())
    print(f"{len(records)} trace(s) in {store.root}")
    return 0


def _missing_key(store: TraceStore, key: str) -> int:
    print(f"no trace {key!r} in {store.root}", file=sys.stderr)
    return 1


def _open_store(path: str) -> TraceStore:
    try:
        return TraceStore(path, create=False)
    except FileNotFoundError:
        raise SystemExit(f"no trace store at {path}")
    except PermissionError as exc:
        # Opening converts a flat store in place, which needs writes.
        raise SystemExit(f"cannot open the trace store at {path}: {exc} "
                         f"(run `store migrate` on a writable copy)")


def cmd_store_show(args) -> int:
    store = _open_store(args.store)
    if args.key not in store:
        return _missing_key(store, args.key)
    record = store.get(args.key)
    print(record.brief())
    if args.tree:
        print(render_trace_tree(store.load(args.key), limit=args.limit))
    return 0


def cmd_store_tag(args) -> int:
    store = _open_store(args.store)
    if args.key not in store:
        return _missing_key(store, args.key)
    if args.remove:
        record = store.untag(args.key, *args.tags)
    else:
        record = store.tag(args.key, *args.tags)
    print(record.brief())
    return 0


def cmd_store_diff(args) -> int:
    """Diff two stored traces directly — no re-capture.

    v2 store files carry their interned ``=e`` key tables, so the
    loaded traces diff without recomputing a single key; the stored
    content digests give a sound identical-content hint up front (the
    cheap shape fingerprint is provenance-only — it collides across
    traces with equal shape but different content, so it is never
    compared here).
    """
    store = _open_store(args.store)
    right = args.right
    if right is None:
        if not args.against_baseline:
            raise SystemExit("store diff needs a second key or "
                             "--against-baseline TAG")
        record = store.index.newest_with_tag(args.against_baseline,
                                             exclude_key=args.left)
        if record is None:
            print(f"no indexed trace carries tag "
                  f"{args.against_baseline!r} in {store.root} "
                  f"(run `repro index build` on legacy stores)",
                  file=sys.stderr)
            return 2
        right = record.key
        print(f"baseline {args.against_baseline!r} -> {right}")
    elif args.against_baseline:
        raise SystemExit("pass a second key or --against-baseline, "
                         "not both")
    for key in (args.left, right):
        if key not in store:
            # Exit 2, not 1: callers (the CI smoke) read 1 as
            # "differences found" — a missing key must stay distinct.
            _missing_key(store, key)
            return 2
    left_record = store.get(args.left)
    right_record = store.get(right)
    digest_l = left_record.metadata.get("digest")
    digest_r = right_record.metadata.get("digest")
    if digest_l and digest_r:
        note = "identical" if digest_l == digest_r else "differ"
        print(f"content digests: {digest_l} vs {digest_r} ({note})")
    session = Session(store=store, engine=_engine_name(args),
                      config=parse_config_flags(args.config),
                      cache=_resolve_cache(args, args.store))
    result = session.diff(args.left, right)
    print(render_diff_report(result, max_sequences=args.limit))
    return 0 if result.num_diffs() == 0 else 1


def cmd_store_rm(args) -> int:
    store = _open_store(args.store)
    if args.key not in store:
        return _missing_key(store, args.key)
    store.delete(args.key)
    print(f"removed {args.key}")
    return 0


def cmd_store_migrate(args) -> int:
    store = _open_store(args.store)  # opening converts a flat layout
    if store.migration is None:
        print(f"{store.root} already sharded")
    else:
        print(f"migrated {store.root} to the sharded layout "
              f"({store.migration['moved']} trace(s) moved, "
              f"{store.migration['dropped']} stale root cop(ies) "
              f"dropped)")
    summary = store.migrate_format()
    print(f"format v3: {summary['migrated']} rewritten, "
          f"{summary['skipped']} already current, "
          f"{summary['failed']} failed")
    return 0 if summary["failed"] == 0 else 1


def cmd_store_stats(args) -> int:
    stats = _open_store(args.store).format_stats()
    for version, bucket in stats["formats"].items():
        label = f"v{version}" if version != "0" else "unstamped"
        print(f"  {label:10} {bucket['traces']:>6} trace(s)  "
              f"{bucket['bytes']:>12} byte(s)")
    print(f"{stats['traces']} trace(s), {stats['bytes']} byte(s) "
          f"on disk in {args.store}")
    return 0


# -- cache ------------------------------------------------------------------


def _cache_dir(path: str) -> Path:
    """A cache directory argument: a trace store directory (sharded,
    or flat and not yet opened) means its ``diffcache`` sidecar,
    anything else is the cache itself."""
    directory = Path(path)
    if (directory / SHARDS_DIR).is_dir() \
            or (directory / INDEX_NAME).exists():
        return directory / "diffcache"
    return directory


def cmd_cache_stats(args) -> int:
    print(DiffCache(_cache_dir(args.path)).stats().render())
    return 0


def cmd_cache_prune(args) -> int:
    if args.keep is None and args.max_age is None:
        raise SystemExit("cache prune needs --keep and/or --max-age")
    cache = DiffCache(_cache_dir(args.path))
    removed = cache.prune(max_entries=args.keep,
                          max_age_seconds=args.max_age)
    print(f"pruned {removed} entr(ies) from {cache.path}")
    return 0


def cmd_cache_clear(args) -> int:
    cache = DiffCache(_cache_dir(args.path))
    removed = cache.clear()
    print(f"cleared {removed} entr(ies) from {cache.path}")
    return 0


# -- index / query ----------------------------------------------------------


def cmd_index_build(args) -> int:
    store = _open_store(args.store)
    count = store.index.rebuild(store)
    print(f"indexed {count} trace(s) under {store.index.root}")
    return 0


def cmd_index_stats(args) -> int:
    print(_open_store(args.store).index.stats().render())
    return 0


def cmd_index_compact(args) -> int:
    store = _open_store(args.store)
    count = store.index.compact()
    print(f"compacted catalog: {count} live record(s)")
    return 0


def cmd_query(args) -> int:
    """Catalog lookups — answered from ``index.d`` alone, no trace
    file is opened no matter how many traces the store holds."""
    store = _open_store(args.store)
    index = store.index
    if args.diffs:
        rows = index.diff_stats(digest_prefix=args.digest_prefix,
                                engine=args.engine, since=args.since,
                                limit=args.limit)
        if args.json:
            print(json.dumps([r.to_json() for r in rows], indent=1))
        else:
            for row in rows:
                cached = " (cached)" if row.cached else ""
                print(f"{row.left[:12]} vs {row.right[:12]} "
                      f"[{row.engine}] {row.num_diffs} diff(s), "
                      f"{row.compares} compare(s), "
                      f"{row.seconds:.3f}s{cached}")
            print(f"{len(rows)} diff stat row(s)")
        return 0
    if args.similar:
        try:
            scored = index.similar(args.similar,
                                   limit=args.limit or 10)
        except KeyError:
            print(f"no indexed trace {args.similar!r} "
                  f"(run `repro index build`?)", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps([{"score": score, **record.to_json()}
                              for score, record in scored], indent=1))
        else:
            for score, record in scored:
                print(f"{score:6.3f}  {record.brief()}")
            print(f"{len(scored)} similar trace(s)")
        return 0
    try:
        records = index.query(tags=tuple(args.tag or ()) or None,
                              scenario=args.scenario,
                              digest_prefix=args.digest_prefix,
                              key_prefix=args.key_prefix,
                              since=args.since, limit=args.limit)
    except ValueError as error:
        raise SystemExit(str(error))
    if args.json:
        print(json.dumps([r.to_json() for r in records], indent=1))
    else:
        for record in records:
            print(record.brief())
        print(f"{len(records)} matching trace(s)")
    return 0


# -- serve ------------------------------------------------------------------


def cmd_serve(args) -> int:
    from repro.service import ReproService
    service = ReproService(TraceStore(args.store, layout=args.layout),
                           host=args.host,
                           port=args.port, workers=args.workers,
                           engine=_engine_name(args),
                           cache=not args.no_cache)
    try:
        service.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


# -- batch ------------------------------------------------------------------


def _jobs_from_spec(spec: dict) -> list[StoredScenarioJob]:
    scenarios = spec.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise SystemExit("batch spec must have a non-empty "
                         "'scenarios' list")
    jobs = []
    for position, entry in enumerate(scenarios):
        def _pair(key, required=False):
            value = entry.get(key)
            if value is None and not required:
                return None
            if (not isinstance(value, (list, tuple)) or len(value) != 2
                    or not all(isinstance(v, str) for v in value)):
                raise SystemExit(f"scenario #{position}: {key!r} must "
                                 f"be a list of two trace keys")
            return (value[0], value[1])

        jobs.append(StoredScenarioJob(
            name=entry.get("name", f"scenario-{position}"),
            suspected=_pair("suspected", required=True),
            expected=_pair("expected"),
            regression=_pair("regression"),
            engine=entry.get("engine"),
            mode=entry.get("mode"),
        ))
    return jobs


def cmd_batch(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"no batch spec at {args.spec}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"batch spec {args.spec} is not valid JSON: "
                         f"{error}")
    jobs = _jobs_from_spec(spec)
    cache = _resolve_cache(args, args.store)
    session = Session(store=_open_store(args.store),
                      engine=_engine_name(args),
                      config=parse_config_flags(args.config),
                      cache=cache)
    result = run_pipeline(jobs, session=session, max_workers=args.jobs)
    print(result.render())
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
              f"{stats.stores} store(s) at {stats.path}")
    return 0 if not result.failed() else 1


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rprism",
        description="semantics-aware trace analysis (offline side)")
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="summarise a trace file")
    info.add_argument("trace")
    info.add_argument("--tree", action="store_true",
                      help="render the call tree")
    info.add_argument("--limit", type=int, default=40)
    info.set_defaults(func=cmd_info)

    views = commands.add_parser("views", help="list a trace's views")
    views.add_argument("trace")
    views.add_argument("--limit", type=int, default=20)
    views.set_defaults(func=cmd_views)

    engines = commands.add_parser(
        "engines", help="list registered diff engines")
    engines.set_defaults(func=cmd_engines)

    diff = commands.add_parser("diff", help="semantic diff of two traces")
    diff.add_argument("left")
    diff.add_argument("right")
    _add_engine_options(diff)
    _add_cache_options(diff)
    diff.add_argument("--limit", type=int, default=10)
    diff.set_defaults(func=cmd_diff)

    analyze = commands.add_parser(
        "analyze", help="regression-cause analysis over trace pairs")
    analyze.add_argument("--suspected-old", required=True)
    analyze.add_argument("--suspected-new", required=True)
    analyze.add_argument("--expected-old")
    analyze.add_argument("--expected-new")
    analyze.add_argument("--regression-left")
    analyze.add_argument("--regression-right")
    analyze.add_argument("--mode", default=MODE_INTERSECT,
                         choices=(MODE_INTERSECT, MODE_SUBTRACT))
    _add_engine_options(analyze)
    analyze.add_argument("--limit", type=int, default=10)
    analyze.set_defaults(func=cmd_analyze)

    store = commands.add_parser(
        "store", help="manage a persistent trace store directory")
    store_cmds = store.add_subparsers(dest="store_command", required=True)

    store_add = store_cmds.add_parser(
        "add", help="ingest a trace file into the store")
    store_add.add_argument("store")
    store_add.add_argument("trace")
    store_add.add_argument("--key", help="store key (default: trace name)")
    store_add.add_argument("--tag", action="append",
                           help="tag to attach (repeatable)")
    store_add.add_argument("--dedup", action="store_true",
                           help="skip the write when a byte-identical "
                                "trace is already stored (catalog "
                                "lookup by content digest)")
    store_add.add_argument("--scenario",
                           help="scenario metadata recorded in the "
                                "catalog (repro query --scenario)")
    store_add.set_defaults(func=cmd_store_add)

    store_list = store_cmds.add_parser("list", help="list stored traces")
    store_list.add_argument("store")
    store_list.add_argument("--tag", help="only traces carrying this tag")
    store_list.set_defaults(func=cmd_store_list)

    store_show = store_cmds.add_parser("show", help="show one stored trace")
    store_show.add_argument("store")
    store_show.add_argument("key")
    store_show.add_argument("--tree", action="store_true")
    store_show.add_argument("--limit", type=int, default=40)
    store_show.set_defaults(func=cmd_store_show)

    store_tag = store_cmds.add_parser("tag", help="tag / untag a trace")
    store_tag.add_argument("store")
    store_tag.add_argument("key")
    store_tag.add_argument("tags", nargs="+")
    store_tag.add_argument("--remove", action="store_true",
                           help="remove the tags instead of adding")
    store_tag.set_defaults(func=cmd_store_tag)

    store_rm = store_cmds.add_parser("rm", help="delete a stored trace")
    store_rm.add_argument("store")
    store_rm.add_argument("key")
    store_rm.set_defaults(func=cmd_store_rm)

    store_diff = store_cmds.add_parser(
        "diff", help="semantic diff of two stored traces (no re-capture)")
    store_diff.add_argument("store")
    store_diff.add_argument("left", help="store key of the left trace")
    store_diff.add_argument("right", nargs="?", default=None,
                            help="store key of the right trace "
                                 "(omit with --against-baseline)")
    store_diff.add_argument("--against-baseline", metavar="TAG",
                            help="diff LEFT against the newest trace "
                                 "carrying TAG (catalog resolution)")
    _add_engine_options(store_diff)
    _add_cache_options(store_diff)
    store_diff.add_argument("--limit", type=int, default=10)
    store_diff.set_defaults(func=cmd_store_diff)

    store_migrate = store_cmds.add_parser(
        "migrate", help="rewrite legacy text trace files as binary v3 "
                        "in place (keys, tags and digests kept), and "
                        "report what opening the store moved from a "
                        "flat layout into shards.d/<hh>/")
    store_migrate.add_argument("store")
    store_migrate.set_defaults(func=cmd_store_migrate)

    store_stats = store_cmds.add_parser(
        "stats", help="per-format trace counts and on-disk bytes")
    store_stats.add_argument("store")
    store_stats.set_defaults(func=cmd_store_stats)

    cache = commands.add_parser(
        "cache", help="manage a persistent diff cache directory")
    cache_cmds = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_cmds.add_parser(
        "stats", help="entry count and footprint of a cache")
    cache_stats.add_argument("path", help="cache directory (a trace "
                                          "store means its diffcache/)")
    cache_stats.set_defaults(func=cmd_cache_stats)

    cache_prune = cache_cmds.add_parser(
        "prune", help="drop old cache entries")
    cache_prune.add_argument("path", help="cache directory (a trace "
                                          "store means its diffcache/)")
    cache_prune.add_argument("--keep", type=int, default=None,
                             metavar="N",
                             help="keep at most N newest entries")
    cache_prune.add_argument("--max-age", type=float, default=None,
                             metavar="SECONDS",
                             help="drop entries older than SECONDS")
    cache_prune.set_defaults(func=cmd_cache_prune)

    cache_clear = cache_cmds.add_parser(
        "clear", help="remove every cache entry")
    cache_clear.add_argument("path", help="cache directory (a trace "
                                          "store means its diffcache/)")
    cache_clear.set_defaults(func=cmd_cache_clear)

    index = commands.add_parser(
        "index", help="manage a store's persistent trace catalog")
    index_cmds = index.add_subparsers(dest="index_command", required=True)

    index_build = index_cmds.add_parser(
        "build", help="(re)build the catalog from the store's traces "
                      "(backfill for legacy stores)")
    index_build.add_argument("store")
    index_build.set_defaults(func=cmd_index_build)

    index_stats = index_cmds.add_parser(
        "stats", help="record counts and footprint of the catalog")
    index_stats.add_argument("store")
    index_stats.set_defaults(func=cmd_index_stats)

    index_compact = index_cmds.add_parser(
        "compact", help="fold the catalog's op logs down to one line "
                        "per live record")
    index_compact.add_argument("store")
    index_compact.set_defaults(func=cmd_index_compact)

    query = commands.add_parser(
        "query", help="query the trace catalog (index-only, no trace "
                      "file reads)")
    query.add_argument("store")
    query.add_argument("--tag", action="append",
                       help="require this tag (repeatable: all must "
                            "be carried)")
    query.add_argument("--scenario", help="exact scenario match")
    query.add_argument("--digest-prefix", metavar="HEX",
                       help="content-digest prefix match")
    query.add_argument("--key-prefix", help="store-key prefix match")
    query.add_argument("--since", metavar="WHEN",
                       help="updated at/after WHEN (epoch seconds or "
                            "ISO-8601)")
    query.add_argument("--similar", metavar="KEY",
                       help="rank traces by similarity to KEY "
                            "(sketch overlap + digest/fingerprint)")
    query.add_argument("--diffs", action="store_true",
                       help="list per-diff stat rows instead of traces")
    query.add_argument("--engine", help="with --diffs: only this engine")
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--json", action="store_true",
                       help="machine-readable output")
    query.set_defaults(func=cmd_query)

    serve = commands.add_parser(
        "serve", help="run the long-lived trace-diff service over a "
                      "store (JSON over HTTP)")
    serve.add_argument("store", help="trace store directory (created "
                                     "if missing)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--layout", choices=("sharded",),
                       default="sharded",
                       help="store layout (sharded is the only one)")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (0: ephemeral, printed on boot)")
    serve.add_argument("--workers", type=int, default=4,
                       help="concurrent job workers")
    _add_engine_options(serve)
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without a diff cache")
    serve.set_defaults(func=cmd_serve)

    batch = commands.add_parser(
        "batch",
        help="run many stored regression scenarios through the pipeline")
    batch.add_argument("spec", help="JSON file with a 'scenarios' list; "
                                    "each entry names suspected/expected/"
                                    "regression store keys")
    batch.add_argument("--store", required=True,
                       help="trace store directory the keys refer to")
    batch.add_argument("--jobs", type=int, default=None,
                       help="worker threads (default: one per scenario, "
                            "capped)")
    _add_engine_options(batch)
    _add_cache_options(batch)
    batch.set_defaults(func=cmd_batch)

    from repro.static.cli import register as register_static
    register_static(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
