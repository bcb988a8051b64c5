"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.cli table2 [--scale small]
    python -m repro.cli table3 [--scale small] [--np-ratios 5,10,20]
    python -m repro.cli table4 [--scale small] [--sample-ratios 0.2,0.6,1.0]
    python -m repro.cli fig3   [--scale small]
    python -m repro.cli fig4   [--scale small]
    python -m repro.cli fig5   [--scale small] [--budgets 10,25,50,75,100]
    python -m repro.cli discover  [--max-length 4]   # auto meta paths
    python -m repro.cli baselines [--scale small]    # unsupervised methods
    python -m repro.cli validate  [--scale small]    # data integrity report
    python -m repro.cli stats     [--scale small]    # per-structure stats
    python -m repro.cli evolve    [--scale small] [--events 4]
                                  [--np-ratio 10] [--sweep] [--churn]
                                  [--compact-every N] [--strict-deltas]
                                  [--model {ridge,svm,svm-pu}] [--feature-map MAP]
    python -m repro.cli experiment [--scale small] [--budget 50]
                                  [--model {ridge,svm,svm-pu}] [--feature-map MAP]
                                  [--streamed]       # one custom lineup
    python -m repro.cli engine    [--scale small] [--budget 30] [--batch 2]
                                  [--workers 4] [--streamed]
                                  [--model {ridge,svm,svm-pu}] [--feature-map MAP]
                                  [--store-dir DIR]
                                  [--executor {serial,thread,process}]
    python -m repro.cli engine checkpoint --store-dir DIR
                                  [--interrupt-after 3]
    python -m repro.cli engine resume --store-dir DIR
    python -m repro.cli trace summarize TRACE.jsonl
    python -m repro.cli trace tree TRACE.jsonl [--trace-id ID]

Every command prints a plain-text analog of the corresponding paper
artifact.  Defaults are sized for minutes-scale runs; raise ``--scale``
and the sweep lists to approach the paper's full grid.

``--model`` selects the model backend of the internal fit step (the
paper's ridge, a streamed supervised SVM, or ``svm-pu`` — the biased
positive-unlabeled SVM training on all of H through the working-set
streamed solver, ``--unlabeled-c`` setting the soft-negative cost) and
``--feature-map`` composes a kernel feature map (``nystroem``,
``fourier``, ``poly``) — both ride the streamed/parallel/process
stack; see :mod:`repro.ml.backends`.
``evolve --sweep`` re-evaluates the full method lineup (streamed SVM
included) at every scheduled network delta.  ``evolve --churn``
switches to the adversarial grow/shrink schedule (node and edge
removals plus attribute churn), ``--compact-every N`` auto-compacts
the session every N events, and ``--strict-deltas`` cross-checks every
event-sourced fold against a fresh export.

``engine checkpoint`` runs a deterministic active fit that snapshots
its state to ``--store-dir`` after every query round
(``--interrupt-after N`` simulates a crash after round N); ``engine
resume`` picks the fit back up from the snapshot, runs it to
completion, and verifies the result is byte-identical to an
uninterrupted run.

``engine``, ``evolve`` and ``experiment`` accept
``--trace-out PATH`` (stream :mod:`repro.obs` spans to a JSONL file;
read it back with ``trace summarize`` / ``trace tree``) and
``--log-level``/``--log-format`` (wire the package loggers through
:func:`repro.obs.logging_setup`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Dict, List, Sequence

from repro.datasets import foursquare_twitter_like
from repro.eval.convergence import convergence_study, format_convergence
from repro.eval.experiment import (
    ExperimentOutcome,
    MethodSpec,
    run_experiment,
)
from repro.eval.plots import ascii_line_chart, sparkline
from repro.eval.protocol import ProtocolConfig
from repro.eval.report import format_single_outcome, format_sweep_table
from repro.eval.timing import format_timing, scalability_study
from repro.exceptions import ExperimentError
from repro.networks.stats import aligned_pair_stats, format_table2


def _parse_int_list(raw: str) -> List[int]:
    return [int(item) for item in raw.split(",") if item]


def _parse_float_list(raw: str) -> List[float]:
    return [float(item) for item in raw.split(",") if item]


def cmd_table2(args: argparse.Namespace) -> str:
    """Dataset statistics (Table II analog)."""
    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    return format_table2(aligned_pair_stats(pair))


def cmd_table3(args: argparse.Namespace) -> str:
    """NP-ratio sweep (Table III analog)."""
    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    outcomes: Dict[object, ExperimentOutcome] = {}
    for np_ratio in args.np_ratios:
        config = ProtocolConfig(
            np_ratio=np_ratio,
            sample_ratio=args.sample_ratio,
            n_repeats=args.repeats,
            seed=args.seed,
        )
        outcomes[np_ratio] = run_experiment(pair, config)
    return format_sweep_table(
        f"Table III analog (sample-ratio={args.sample_ratio:.0%})",
        "NP-ratio",
        args.np_ratios,
        outcomes,
    )


def cmd_table4(args: argparse.Namespace) -> str:
    """Sample-ratio sweep (Table IV analog)."""
    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    outcomes: Dict[object, ExperimentOutcome] = {}
    for sample_ratio in args.sample_ratios:
        config = ProtocolConfig(
            np_ratio=args.np_ratio,
            sample_ratio=sample_ratio,
            n_repeats=args.repeats,
            seed=args.seed,
        )
        outcomes[sample_ratio] = run_experiment(pair, config)
    return format_sweep_table(
        f"Table IV analog (NP-ratio={args.np_ratio})",
        "sample-ratio",
        args.sample_ratios,
        outcomes,
    )


def cmd_fig3(args: argparse.Namespace) -> str:
    """Convergence traces (Figure 3 analog)."""
    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    traces = convergence_study(pair, np_ratios=args.np_ratios, seed=args.seed)
    lines = [format_convergence(traces), ""]
    for trace in traces:
        lines.append(
            f"  NP-ratio={trace.np_ratio:>3} trend: "
            f"{sparkline(list(trace.deltas))}"
        )
    return "\n".join(lines)


def cmd_fig4(args: argparse.Namespace) -> str:
    """Scalability timing (Figure 4 analog)."""
    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    points = scalability_study(
        pair, np_ratios=args.np_ratios, budget=args.budget, seed=args.seed
    )
    chart = ascii_line_chart(
        {"ActiveIter": [(p.n_candidates, p.seconds) for p in points]},
        x_label="|H|",
        y_label="seconds",
    )
    return format_timing(points) + "\n\n" + chart


def cmd_fig5(args: argparse.Namespace) -> str:
    """Budget sweep (Figure 5 analog)."""
    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    blocks: List[str] = []
    for budget in args.budgets:
        methods: Sequence[MethodSpec] = [
            MethodSpec(name=f"ActiveIter-{budget}", kind="active", budget=budget),
            MethodSpec(
                name=f"ActiveIter-Rand-{budget}",
                kind="active",
                budget=budget,
                strategy="random",
            ),
            MethodSpec(name="Iter-MPMD", kind="iterative"),
        ]
        config = ProtocolConfig(
            np_ratio=args.np_ratio,
            sample_ratio=args.sample_ratio,
            n_repeats=args.repeats,
            seed=args.seed,
        )
        outcome = run_experiment(pair, config, methods)
        blocks.append(format_single_outcome(f"budget b={budget}", outcome))
    return "\n\n".join(blocks)


def cmd_discover(args: argparse.Namespace) -> str:
    """Automatic meta path discovery from the schema."""
    from repro.meta.discovery import (
        discover_inter_network_paths,
        discover_standard_paths,
    )

    paths = discover_inter_network_paths(
        max_length=args.max_length, include_words=args.words
    )
    standard = {
        discovered.signature: name
        for name, discovered in discover_standard_paths(
            include_words=args.words
        ).items()
    }
    lines = [
        f"{len(paths)} inter-network meta paths up to length {args.max_length}",
        f"{'len':>4} {'crossing':<10} {'paper':<6} signature",
    ]
    for path in paths:
        label = standard.get(path.signature, "")
        lines.append(
            f"{path.length:>4} {path.crossing:<10} {label:<6} {path.signature}"
        )
    return "\n".join(lines)


def cmd_baselines(args: argparse.Namespace) -> str:
    """Unsupervised baselines vs label-free ActiveIter lower bound."""
    from repro.baselines import DegreeMatcher, IsoRank

    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    k = pair.anchor_count()
    lines = [
        f"Unsupervised alignment on scale={args.scale} ({k} true anchors)",
        f"{'method':<28}{'matched':>9}{'correct':>9}{'precision':>11}",
    ]
    methods = {
        "DegreeMatcher": DegreeMatcher(),
        "IsoRank (topology only)": IsoRank(use_attributes=False),
        "IsoRank (+attributes)": IsoRank(use_attributes=True),
    }
    for name, model in methods.items():
        matches = model.fit(pair).align(pair, top_k=k)
        correct = sum(1 for match in matches if pair.is_anchor(match))
        precision = correct / max(1, len(matches))
        lines.append(
            f"{name:<28}{len(matches):>9}{correct:>9}{precision:>11.3f}"
        )
    return "\n".join(lines)


def cmd_validate(args: argparse.Namespace) -> str:
    """Data integrity report for the generated dataset."""
    from repro.networks.validation import check_aligned_pair, check_network

    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    reports = [
        check_network(pair.left),
        check_network(pair.right),
        check_aligned_pair(pair),
    ]
    return "\n\n".join(report.format() for report in reports)


def cmd_stats(args: argparse.Namespace) -> str:
    """Per-structure support and separation statistics."""
    from repro.meta.statistics import family_statistics, format_family_statistics

    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    return format_family_statistics(family_statistics(pair))


def _method_knob_lineup(args: argparse.Namespace):
    """Lineup for the --model/--feature-map knobs, or None for defaults."""
    if args.model == "ridge" and args.feature_map is None:
        return None
    suffix = args.model + (f"+{args.feature_map}" if args.feature_map else "")
    return [
        MethodSpec(
            name=f"Iter-MPMD[{suffix}]",
            kind="iterative",
            model=args.model,
            unlabeled_C=args.unlabeled_c,
            feature_map=args.feature_map,
        )
    ]


def cmd_evolve(args: argparse.Namespace) -> str:
    """Evolving-network scenario: scripted drift, delta vs full recount."""
    from repro.engine.evolution import (
        scripted_churn_schedule,
        scripted_delta_schedule,
    )
    from repro.eval.experiment import format_evolve_outcome, run_evolve_scenario
    from repro.eval.protocol import ProtocolConfig
    from repro.eval.sweeps import evolve_sweep_methods, run_evolve_sweep

    # The schedule is built from (and does not mutate) a base pair;
    # hand that same pair to the scenario's first build instead of
    # generating the dataset a third time.
    prebuilt = [foursquare_twitter_like(scale=args.scale, seed=args.seed)]

    def make_pair():
        if prebuilt:
            return prebuilt.pop()
        return foursquare_twitter_like(scale=args.scale, seed=args.seed)

    if args.churn:
        schedule = scripted_churn_schedule(
            prebuilt[0],
            events=args.events,
            seed=args.seed,
            users_per_event=args.users_per_event,
            posts_per_event=args.posts_per_event,
            edges_per_event=args.edges_per_event,
        )
    else:
        schedule = scripted_delta_schedule(
            prebuilt[0],
            events=args.events,
            seed=args.seed,
            users_per_event=args.users_per_event,
            posts_per_event=args.posts_per_event,
            edges_per_event=args.edges_per_event,
        )
    session_options = {}
    if args.compact_every is not None:
        session_options["compact_every"] = args.compact_every
    if args.strict_deltas:
        session_options["strict_deltas"] = True
    config = ProtocolConfig(
        np_ratio=args.np_ratio, sample_ratio=1.0, n_repeats=1, seed=args.seed
    )
    if args.sweep:
        # Drifting method sweep: the full lineup (streamed SVM included,
        # plus any --model/--feature-map variant) is re-evaluated after
        # every scheduled delta.
        methods = evolve_sweep_methods() + (_method_knob_lineup(args) or [])
        outcome = run_evolve_sweep(
            make_pair,
            config,
            schedule,
            methods=methods,
            seed=args.seed,
            session_options=session_options,
        )
    else:
        outcome = run_evolve_scenario(
            make_pair,
            config,
            schedule,
            methods=_method_knob_lineup(args),
            seed=args.seed,
            session_options=session_options,
        )
    return format_evolve_outcome(outcome)


def cmd_experiment(args: argparse.Namespace) -> str:
    """One custom experiment lineup with the model/feature-map knobs."""
    from repro.eval.protocol import ProtocolConfig

    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    suffix = args.model + (f"+{args.feature_map}" if args.feature_map else "")
    if args.streamed:
        suffix += "+streamed"
    methods = [
        MethodSpec(
            name=f"ActiveIter-{args.budget}[{suffix}]",
            kind="active",
            budget=args.budget,
            model=args.model,
            unlabeled_C=args.unlabeled_c,
            feature_map=args.feature_map,
            streamed=args.streamed,
        ),
        MethodSpec(
            name=f"Iter-MPMD[{suffix}]",
            kind="iterative",
            model=args.model,
            unlabeled_C=args.unlabeled_c,
            feature_map=args.feature_map,
            streamed=args.streamed,
        ),
        MethodSpec(
            name="SVM-MPMD" + ("[streamed]" if args.streamed else ""),
            kind="svm",
            feature_map=args.feature_map,
            streamed=args.streamed,
        ),
    ]
    config = ProtocolConfig(
        np_ratio=args.np_ratio,
        sample_ratio=args.sample_ratio,
        n_repeats=args.repeats,
        seed=args.seed,
    )
    outcome = run_experiment(pair, config, methods, workers=args.workers)
    title = (
        f"Custom lineup (model={args.model}, "
        f"feature-map={args.feature_map or 'none'}, "
        f"streamed={args.streamed})"
    )
    return format_single_outcome(title, outcome)


def _engine_active_setup(args: argparse.Namespace):
    """Deterministic pair/split/model construction for checkpoint/resume.

    Both ``engine checkpoint`` and ``engine resume`` (and the
    uninterrupted reference run) must build the *same* fit from the CLI
    arguments alone — same split, oracle, strategy and session anchors —
    so a resumed run can be compared byte-for-byte.
    """
    from repro.active.oracle import LabelOracle
    from repro.core.activeiter import ActiveIter
    from repro.core.base import AlignmentTask
    from repro.engine import AlignmentSession
    from repro.eval.protocol import ProtocolConfig, build_splits
    from repro.ml.backends import make_backend

    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    config = ProtocolConfig(
        np_ratio=args.np_ratio, sample_ratio=1.0, n_repeats=1, seed=args.seed
    )
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }
    model_name = getattr(args, "model", "ridge")
    feature_map = getattr(args, "feature_map", None)

    def build(checkpoint=None, store=None):
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs, store=store
        )
        candidates = list(split.candidates)
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        backend = None
        if model_name != "ridge" or feature_map is not None:
            backend = make_backend(
                model_name,
                seed=args.seed,
                feature_map=feature_map,
                unlabeled_C=getattr(args, "unlabeled_c", 0.1),
            )
        model = ActiveIter(
            LabelOracle(positives, budget=args.budget),
            batch_size=args.batch,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
            backend=backend,
            positive_threshold=(
                0.0 if model_name.startswith("svm") else 0.5
            ),
        )
        return model, task, session

    return build


def _cmd_engine_checkpoint(args: argparse.Namespace) -> str:
    """Run a checkpointed active fit (optionally crashing mid-loop)."""
    from repro.exceptions import CheckpointInterrupt
    from repro.store import SessionCheckpoint

    if args.store_dir is None:
        raise SystemExit("engine checkpoint requires --store-dir")
    build = _engine_active_setup(args)
    checkpoint = SessionCheckpoint(
        args.store_dir, interrupt_after=args.interrupt_after
    )
    model, task, session = build(checkpoint=checkpoint, store=args.store_dir)
    lines = [
        (
            f"Checkpointed active fit (budget={args.budget}, "
            f"batch={args.batch}, store={args.store_dir})"
        )
    ]
    try:
        with session:
            model.fit(task)
    except CheckpointInterrupt as interrupt:
        lines.append(f"interrupted: {interrupt}")
        lines.append(
            "resume with: engine resume --store-dir "
            f"{args.store_dir} (same --scale/--seed/--np-ratio/--budget/"
            "--batch/--model flags)"
        )
    else:
        lines.append(
            f"completed in {model.result_.n_rounds} rounds, "
            f"{len(model.queried_)} labels bought; checkpoint cleared"
        )
    lines.append(f"checkpoint saves: {checkpoint.saves}")
    return "\n".join(lines)


def _cmd_engine_resume(args: argparse.Namespace) -> str:
    """Resume a checkpointed fit and verify against an uninterrupted run."""
    import numpy as np

    from repro.store import SessionCheckpoint

    if args.store_dir is None:
        raise SystemExit("engine resume requires --store-dir")
    checkpoint = SessionCheckpoint(args.store_dir)
    if not checkpoint.exists():
        raise SystemExit(
            f"no checkpoint found under {args.store_dir}; "
            "run `engine checkpoint --store-dir ...` first"
        )
    build = _engine_active_setup(args)
    model, task, session = build(checkpoint=checkpoint, store=args.store_dir)
    with session:
        model.fit(task)
    reference, reference_task, reference_session = build()
    with reference_session:
        reference.fit(reference_task)
    identical = (
        model.queried_ == reference.queried_
        and np.array_equal(model.labels_, reference.labels_)
        and np.array_equal(model.weights_, reference.weights_)
    )
    return "\n".join(
        [
            (
                f"Resumed active fit from {checkpoint.path}: "
                f"{model.result_.n_rounds} total rounds, "
                f"{len(model.queried_)} labels bought"
            ),
            (
                "byte-identical to uninterrupted run: "
                f"{identical} (queried, labels, weights)"
            ),
        ]
    )


def cmd_trace(args: argparse.Namespace) -> str:
    """Summarize or tree-render a trace JSONL file."""
    from repro.obs.report import (
        format_trace_trees,
        load_spans,
        summarize_spans,
    )

    try:
        spans = load_spans(args.trace_file, include_workers=not args.no_workers)
    except FileNotFoundError as missing:
        raise SystemExit(str(missing))
    if args.action == "tree":
        return format_trace_trees(spans, trace_id=args.trace_id)
    return summarize_spans(spans)


def cmd_engine(args: argparse.Namespace) -> str:
    """Engine diagnostics, plus the checkpoint/resume workflow.

    Every race the diagnostics print is an exactness check: the command
    raises :class:`~repro.exceptions.ExperimentError` (report attached)
    when any of them is not byte-identical, so a CI step fails on it.
    """
    from repro.engine import AlignmentSession, CandidateGenerator, make_executor
    from repro.eval.timing import (
        FIT_BLOCK,
        Race,
        active_fit,
        anchor_rounds,
        first_split,
        run_anchor_rounds,
    )
    from repro.obs.report import format_metrics_snapshot

    if args.action == "checkpoint":
        return _cmd_engine_checkpoint(args)
    if args.action == "resume":
        return _cmd_engine_resume(args)

    pair = foursquare_twitter_like(scale=args.scale, seed=args.seed)
    split = first_split(pair, args.np_ratio, args.seed)
    fit = functools.partial(
        active_fit, pair, split, args.budget, args.batch, seed=args.seed
    )
    races = [
        Race.between(
            "Incremental session vs full recompute "
            "(ActiveIter with feature refresh)",
            ("full", "incremental"),
            fit(refresh=True, incremental=False),
            fit(refresh=True),
        )
    ]
    # The context managers guarantee the pool (and arena handles) are
    # released even when a diagnostic below raises.
    with make_executor(args.executor, args.workers) as executor:
        with AlignmentSession(
            pair,
            known_anchors=pair.anchors,
            workers=executor,
            store=args.store_dir,
        ) as session:
            generator = CandidateGenerator.from_support(session)
            pruned = generator.count()
            full_space = pair.candidate_space_size()
            lines = [
                races[0].render(),
                "",
                "Candidate streaming (support pruning, all anchors known):",
                (
                    f"  |U1|x|U2| = {full_space}  ->  {pruned} supported "
                    f"pairs ({pruned / max(1, full_space):.1%} of the cross "
                    "product)"
                ),
                (
                    f"  session stats: workers={session.workers} "
                    f"executor={session.executor.kind} "
                    f"{session.stats.summary()}"
                ),
                "",
                "Metrics registry (session + executor):",
                format_metrics_snapshot(session.metrics_snapshot()),
            ]
    if args.workers > 1 and args.executor == "thread":
        rounds = anchor_rounds(pair, args.np_ratio, seed=args.seed)
        races.append(
            Race.between(
                f"Parallel execution layer vs serial (workers={args.workers}, "
                f"{len(rounds.arrivals)} anchor rounds)",
                ("serial", "threaded"),
                run_anchor_rounds(rounds),
                run_anchor_rounds(rounds, workers=args.workers),
            )
        )
    if args.store_dir is not None:
        rounds = anchor_rounds(pair, args.np_ratio, rounds=4, seed=args.seed)
        memory = run_anchor_rounds(rounds)
        with make_executor(args.executor, args.workers) as executor:
            store = run_anchor_rounds(
                rounds, workers=executor, store=args.store_dir
            )
        races.append(
            Race.between(
                "Disk-backed matrix store vs in-memory baseline "
                f"(executor={args.executor}, workers={args.workers}, "
                f"{len(rounds.arrivals)} anchor rounds)",
                ("in-memory", "store"),
                memory,
                store,
            )
        )
    if args.streamed or args.model != "ridge" or args.feature_map is not None:
        backend = dict(
            model=args.model,
            feature_map=args.feature_map,
            unlabeled_C=args.unlabeled_c,
        )
        n_blocks = -(-len(split.candidates) // FIT_BLOCK)
        races.append(
            Race.between(
                "Streamed active fit vs materialized task "
                f"(|H|={len(split.candidates)}, {n_blocks} blocks)",
                ("materialized", "streamed"),
                fit(**backend),
                fit(streamed=True, **backend),
            )
        )
    for race in races[1:]:
        lines.extend(["", race.render()])
    report = "\n".join(lines)
    differing = [
        " vs ".join(reversed(race.paths)) for race in races if not race.identical
    ]
    if differing:
        raise ExperimentError(
            f"engine outputs differ ({', '.join(differing)}):\n{report}"
        )
    return report


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate tables/figures of the ActiveIter paper.",
    )
    parser.add_argument("--scale", default="small", help="dataset scale preset")
    parser.add_argument("--seed", type=int, default=7, help="global seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="dataset statistics")

    table3 = sub.add_parser("table3", help="NP-ratio sweep")
    table3.add_argument(
        "--np-ratios", type=_parse_int_list, default=[5, 10, 20, 50]
    )
    table3.add_argument("--sample-ratio", type=float, default=0.6)
    table3.add_argument("--repeats", type=int, default=3)

    table4 = sub.add_parser("table4", help="sample-ratio sweep")
    table4.add_argument(
        "--sample-ratios", type=_parse_float_list, default=[0.2, 0.6, 1.0]
    )
    table4.add_argument("--np-ratio", type=int, default=20)
    table4.add_argument("--repeats", type=int, default=3)

    fig3 = sub.add_parser("fig3", help="convergence traces")
    fig3.add_argument("--np-ratios", type=_parse_int_list, default=[10, 30, 50])

    fig4 = sub.add_parser("fig4", help="scalability timing")
    fig4.add_argument(
        "--np-ratios", type=_parse_int_list, default=[5, 10, 20, 30, 40, 50]
    )
    fig4.add_argument("--budget", type=int, default=50)

    fig5 = sub.add_parser("fig5", help="budget sweep")
    fig5.add_argument(
        "--budgets", type=_parse_int_list, default=[10, 25, 50, 75, 100]
    )
    fig5.add_argument("--np-ratio", type=int, default=20)
    fig5.add_argument("--sample-ratio", type=float, default=0.6)
    fig5.add_argument("--repeats", type=int, default=3)

    discover = sub.add_parser("discover", help="automatic meta path discovery")
    discover.add_argument("--max-length", type=int, default=4)
    discover.add_argument("--words", action="store_true")

    sub.add_parser("baselines", help="unsupervised baseline comparison")
    sub.add_parser("validate", help="dataset integrity report")
    sub.add_parser("stats", help="meta structure statistics")

    evolve = sub.add_parser(
        "evolve",
        help="evolving-network scenario: delta path vs full recount",
    )
    evolve.add_argument("--events", type=int, default=4)
    evolve.add_argument("--np-ratio", type=int, default=10)
    evolve.add_argument("--users-per-event", type=int, default=1)
    evolve.add_argument("--posts-per-event", type=int, default=4)
    evolve.add_argument("--edges-per-event", type=int, default=6)
    evolve.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "re-evaluate the full method lineup (streamed SVM included) "
            "after every scheduled network delta"
        ),
    )
    evolve.add_argument(
        "--churn",
        action="store_true",
        help=(
            "use the adversarial churn schedule (interleaved node/edge "
            "removals and attribute churn) instead of pure growth"
        ),
    )
    evolve.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "auto-compact the session (drop tombstoned slots, truncate "
            "the evolution log) every N applied events"
        ),
    )
    evolve.add_argument(
        "--strict-deltas",
        action="store_true",
        help=(
            "verify every event-sourced delta fold against a fresh "
            "matrix export (slow; for debugging custom schedules)"
        ),
    )
    _add_model_knobs(evolve)

    experiment = sub.add_parser(
        "experiment",
        help="one custom experiment lineup with model/feature-map knobs",
    )
    experiment.add_argument("--np-ratio", type=int, default=10)
    experiment.add_argument("--sample-ratio", type=float, default=0.6)
    experiment.add_argument("--repeats", type=int, default=1)
    experiment.add_argument("--budget", type=int, default=50)
    experiment.add_argument("--workers", type=int, default=None)
    experiment.add_argument(
        "--streamed",
        action="store_true",
        help="run every method over streamed candidate blocks",
    )
    _add_model_knobs(experiment)

    engine = sub.add_parser(
        "engine",
        help="engine diagnostics and the checkpoint/resume workflow",
    )
    engine.add_argument(
        "action",
        nargs="?",
        default="diagnose",
        choices=["diagnose", "checkpoint", "resume"],
        help=(
            "diagnose (default) prints engine comparisons; checkpoint runs "
            "a durable active fit; resume continues one from --store-dir"
        ),
    )
    # At small scales the conflict strategy buys positives reliably only
    # when positives are a sizable slice of H; 5 keeps the demo honest.
    engine.add_argument("--np-ratio", type=int, default=5)
    engine.add_argument("--budget", type=int, default=30)
    engine.add_argument("--batch", type=int, default=2)
    engine.add_argument(
        "--workers",
        type=int,
        default=1,
        help="executor parallelism; > 1 adds an executor-vs-serial race",
    )
    engine.add_argument(
        "--executor",
        default="thread",
        choices=["serial", "thread", "process"],
        help="execution backend used when --workers > 1",
    )
    engine.add_argument(
        "--store-dir",
        default=None,
        help=(
            "disk-backed matrix store directory: spills count matrices to "
            "disk (memory-mapped reads) and holds checkpoint files"
        ),
    )
    engine.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        help=(
            "engine checkpoint only: simulate a crash after N completed "
            "query rounds (the checkpoint survives for engine resume)"
        ),
    )
    engine.add_argument(
        "--streamed",
        action="store_true",
        help="also race the streamed active fit against the materialized task",
    )
    _add_model_knobs(engine)

    for command in (engine, evolve, experiment):
        _add_obs_knobs(command)

    trace = sub.add_parser(
        "trace",
        help="read back a --trace-out JSONL file (summary or span tree)",
    )
    trace.add_argument(
        "action",
        choices=["summarize", "tree"],
        help="summarize aggregates per span name; tree renders parentage",
    )
    trace.add_argument(
        "trace_file",
        metavar="TRACE.jsonl",
        help="trace file written by --trace-out (rotations are included)",
    )
    trace.add_argument(
        "--trace-id",
        default=None,
        help="tree only: restrict the rendering to one trace id",
    )
    trace.add_argument(
        "--no-workers",
        action="store_true",
        help="skip trace-worker-*.jsonl siblings from process-pool workers",
    )

    return parser


def _add_model_knobs(parser: argparse.ArgumentParser) -> None:
    """Attach the model-backend knobs shared by engine/evolve/experiment."""
    parser.add_argument(
        "--model",
        default="ridge",
        choices=["ridge", "svm", "svm-pu"],
        help="model backend of the internal fit step (default: ridge)",
    )
    parser.add_argument(
        "--unlabeled-c",
        type=float,
        default=0.1,
        metavar="C",
        help=(
            "box constraint of unlabeled rows under --model svm-pu "
            "(default: 0.1)"
        ),
    )
    parser.add_argument(
        "--feature-map",
        default=None,
        choices=["nystroem", "fourier", "poly", "linear"],
        help="kernel feature map composed into the fit (default: none)",
    )


def _add_obs_knobs(parser: argparse.ArgumentParser) -> None:
    """Attach the observability knobs (tracing + logging) to a command."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "stream repro.obs spans to this JSONL file (read it back "
            "with `trace summarize` / `trace tree`)"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable package logging at this level (off by default)",
    )
    parser.add_argument(
        "--log-format",
        default="text",
        choices=["text", "json"],
        help="log line format used with --log-level (default: text)",
    )


def _setup_observability(args: argparse.Namespace):
    """Honor --trace-out/--log-level; returns the root span or None."""
    import logging

    if getattr(args, "log_level", None) is not None:
        from repro.obs import logging_setup

        logging_setup(
            level=getattr(logging, args.log_level.upper()),
            fmt=args.log_format,
        )
    if getattr(args, "trace_out", None) is not None:
        from repro.obs import configure_tracing

        tracer = configure_tracing(args.trace_out)
        return tracer.span(f"cli.{args.command}")
    return None


_COMMANDS = {
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "discover": cmd_discover,
    "baselines": cmd_baselines,
    "validate": cmd_validate,
    "stats": cmd_stats,
    "evolve": cmd_evolve,
    "experiment": cmd_experiment,
    "engine": cmd_engine,
    "trace": cmd_trace,
}


def main(argv: Sequence[str] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    root = _setup_observability(args)
    if root is not None:
        # One root span per invocation: every span the command emits
        # (this process and its process-pool workers) shares its trace id.
        with root:
            output = _COMMANDS[args.command](args)
    else:
        output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
