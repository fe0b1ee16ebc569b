//! Implementation of the `rrm` command-line tool (see `src/bin/rrm.rs`).
//!
//! Hand-rolled argument parsing (no CLI dependency): three subcommands over
//! a numeric CSV file.
//!
//! ```text
//! rrm minimize  --input cars.csv --size 5 [common flags]
//! rrm represent --input cars.csv --threshold 10 [common flags]
//! rrm frontier  --input cars.csv --max-size 10 [common flags]   (d = 2 only)
//!
//! common flags:
//!   --algo NAME            pick an algorithm (2drrm, 2drrr, hdrrm, mdrrr,
//!                          mdrrr-r, mdrc, mdrms, bruteforce, sampled);
//!                          default: auto
//!   --format text|json     report format (default: text); json emits a
//!                          machine-readable solution report with timings
//!   --no-header            first CSV line is data, not column names
//!   --columns 0,2,3        use only these columns (0-based)
//!   --negate 1,2           smaller-is-better columns to negate first
//!   --no-normalize         skip min-max normalization to [0, 1]
//!   --weak-ranking c       restrict to u[0] >= u[1] >= ... >= u[c]
//!   --quick                smaller HDRRM sample budget (delta = 0.1)
//!   --threads N            worker threads for solver kernels (0 = all
//!                          cores, the default; RRM_THREADS also honored).
//!                          Purely a speed knob: answers are bit-identical
//!   --warm                 eagerly prepare every registered algorithm
//!                          before answering (what a server does at
//!                          startup); reports how many built and the cost
//!   --time-limit-ms MS     wall-clock limit for the anytime solvers:
//!                          return the best incumbent with certified
//!                          bounds instead of running out
//!   --gap G                stop once the relative optimality gap is <= G
//!                          (deterministic). With --time-limit-ms, both
//!                          limits apply and the first one reached stops
//!                          the solve
//!   --approx EPS[,DELTA]   answer at approximate fidelity: a sampled-ε
//!                          solve whose certificate holds with probability
//!                          >= 1-DELTA (default DELTA 0.05). Seeded and
//!                          bit-deterministic at any --threads value
//! ```
//!
//! `--algo` resolves through the engine registry ([`crate::Engine`]);
//! an unknown name errors with the list of valid ones. Queries run through
//! a [`crate::Session`] — one prepare, then the query — and both phases
//! are timed separately in the report.

use std::time::Instant;

use crate::{
    AlgoChoice, Algorithm, ApproxSpec, Dataset, Engine, ExecPolicy, Request, RrmError, Solution,
    Tuning, WeakRankingSpace,
};
use rrm_2d::pareto_frontier;
use rrm_core::FullSpace;
use rrm_data::csv::read_csv_file;
use rrm_hd::HdrrmOptions;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Command,
    pub input: String,
    pub algo: Option<Algorithm>,
    pub format: Format,
    pub has_header: bool,
    pub columns: Option<Vec<usize>>,
    pub negate: Vec<usize>,
    pub normalize: bool,
    pub weak_ranking: Option<usize>,
    pub quick: bool,
    /// Worker threads for solver kernels; `None` = auto (`RRM_THREADS`,
    /// else all cores), `Some(0)` = all cores explicitly.
    pub threads: Option<usize>,
    /// Eagerly prepare every registered algorithm before the query
    /// ([`crate::Session::warm`]); failures are cached, not fatal.
    pub warm: bool,
    /// Wall-clock limit in milliseconds for the anytime solvers (best
    /// incumbent + certified bounds on expiry).
    pub time_limit_ms: Option<u64>,
    /// Stop once the relative optimality gap is at most this value
    /// (deterministic). Composes with `--time-limit-ms`: the first limit
    /// reached stops the solve.
    pub gap: Option<f64>,
    /// Approximate fidelity: answer via the sampled-ε tier with this
    /// `(eps, delta)` Hoeffding confidence statement.
    pub approx: Option<ApproxSpec>,
}

/// Report format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable table (the default).
    #[default]
    Text,
    /// Hand-rolled machine-readable JSON: indices, certified regret,
    /// algorithm, and prepare/query timings.
    Json,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Minimize { size: usize },
    Represent { threshold: usize },
    Frontier { max_size: usize },
}

/// Parse an argument vector (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or_else(usage)?;
    let mut input: Option<String> = None;
    let mut algo: Option<Algorithm> = None;
    let mut format = Format::Text;
    let mut has_header = true;
    let mut columns = None;
    let mut negate = Vec::new();
    let mut normalize = true;
    let mut weak_ranking = None;
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut warm = false;
    let mut time_limit_ms: Option<u64> = None;
    let mut gap: Option<f64> = None;
    let mut approx: Option<ApproxSpec> = None;
    let mut size: Option<usize> = None;
    let mut threshold: Option<usize> = None;
    let mut max_size: Option<usize> = None;

    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--input" => input = Some(value("--input")?),
            "--algo" => {
                algo = Some(Algorithm::from_name(&value("--algo")?).map_err(|e| e.to_string())?)
            }
            "--format" => {
                format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("--format: expected text or json, got {other:?}")),
                }
            }
            "--no-header" => has_header = false,
            "--columns" => columns = Some(parse_index_list(&value("--columns")?)?),
            "--negate" => negate = parse_index_list(&value("--negate")?)?,
            "--no-normalize" => normalize = false,
            "--weak-ranking" => {
                weak_ranking = Some(parse_usize("--weak-ranking", &value("--weak-ranking")?)?)
            }
            "--quick" => quick = true,
            "--threads" => threads = Some(parse_usize("--threads", &value("--threads")?)?),
            "--warm" => warm = true,
            "--time-limit-ms" => {
                time_limit_ms =
                    Some(parse_usize("--time-limit-ms", &value("--time-limit-ms")?)? as u64)
            }
            "--gap" => {
                let v = value("--gap")?;
                let g: f64 = v.parse().map_err(|_| format!("--gap: bad number {v:?}"))?;
                if !(0.0..=1.0).contains(&g) {
                    return Err(format!("--gap: expected a value in [0, 1], got {v}"));
                }
                gap = Some(g);
            }
            "--approx" => {
                let v = value("--approx")?;
                let (eps_s, delta_s) = match v.split_once(',') {
                    Some((e, d)) => (e.trim(), Some(d.trim())),
                    None => (v.trim(), None),
                };
                let eps: f64 = eps_s.parse().map_err(|_| format!("--approx: bad eps {eps_s:?}"))?;
                let delta: f64 = match delta_s {
                    Some(s) => s.parse().map_err(|_| format!("--approx: bad delta {s:?}"))?,
                    None => ApproxSpec::default().delta,
                };
                approx = Some(ApproxSpec::new(eps, delta).map_err(|e| e.to_string())?);
            }
            "--size" => size = Some(parse_usize("--size", &value("--size")?)?),
            "--threshold" => threshold = Some(parse_usize("--threshold", &value("--threshold")?)?),
            "--max-size" => max_size = Some(parse_usize("--max-size", &value("--max-size")?)?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let input = input.ok_or("--input is required".to_string())?;
    let command = match sub.as_str() {
        "minimize" => Command::Minimize { size: size.ok_or("--size is required")? },
        "represent" => {
            Command::Represent { threshold: threshold.ok_or("--threshold is required")? }
        }
        "frontier" => Command::Frontier { max_size: max_size.ok_or("--max-size is required")? },
        other => return Err(format!("unknown subcommand {other}\n{}", usage())),
    };
    Ok(Args {
        command,
        input,
        algo,
        format,
        has_header,
        columns,
        negate,
        normalize,
        weak_ranking,
        quick,
        threads,
        warm,
        time_limit_ms,
        gap,
        approx,
    })
}

fn usage() -> String {
    "usage: rrm <minimize|represent|frontier> --input FILE \
     [--size R | --threshold K | --max-size R] [--algo NAME] [--format text|json] \
     [--no-header] [--columns LIST] [--negate LIST] [--no-normalize] \
     [--weak-ranking C] [--quick] [--threads N] [--warm] \
     [--time-limit-ms MS] [--gap G] [--approx EPS[,DELTA]]"
        .to_string()
}

fn parse_index_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|_| format!("bad index {p:?}")))
        .collect()
}

fn parse_usize(flag: &str, s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{flag}: bad number {s:?}"))
}

/// Load, transform and solve; returns the rendered report.
pub fn run(args: &Args) -> Result<String, RrmError> {
    let table = read_csv_file(&args.input, args.has_header)?;
    let mut headers = table.headers.clone();
    let mut data = table.data;
    if let Some(cols) = &args.columns {
        data = data.project(cols)?;
        headers = cols
            .iter()
            .map(|&c| headers.get(c).cloned().unwrap_or_else(|| format!("col{c}")))
            .collect();
    }
    if !args.negate.is_empty() {
        data = data.negate_attributes(&args.negate);
    }
    if args.normalize {
        data = data.normalize();
    }
    let d = data.dim();

    let exec = match args.threads {
        Some(n) => ExecPolicy::threads(n),
        None => ExecPolicy::default(),
    };
    let tuning = Tuning {
        hdrrm: if args.quick {
            HdrrmOptions { delta: 0.1, ..Default::default() }
        } else {
            HdrrmOptions::default()
        },
        ..Default::default()
    };
    let choice = match args.algo {
        Some(a) => AlgoChoice::Fixed(a),
        None => AlgoChoice::Auto,
    };

    // The anytime solvers' limits: each one set applies, and the first
    // one reached stops the solve.
    let limits = crate::Budget {
        time_limit: args.time_limit_ms.map(std::time::Duration::from_millis),
        gap: args.gap,
        ..crate::Budget::UNLIMITED
    };

    match args.command {
        Command::Minimize { .. } | Command::Represent { .. } => {
            let mut request = match args.command {
                Command::Minimize { size } => Request::minimize(size),
                Command::Represent { threshold } => Request::represent(threshold),
                Command::Frontier { .. } => unreachable!(),
            }
            .choice(choice)
            .budget(limits);
            if let Some(spec) = args.approx {
                request = request.approx(spec.eps, spec.delta);
            }
            // Prepare-once / query-once through the session, with the two
            // phases timed separately.
            let mut session = Engine::with_tuning(&tuning).with_exec(exec).session(data);
            if let Some(c) = args.weak_ranking {
                session = session.space(WeakRankingSpace::new(d, c));
            }
            // --warm: what a server does at startup — build every
            // prepared handle eagerly so no query pays first-use latency.
            let warm = if args.warm {
                let warm_start = Instant::now();
                let ok = session.warm(&Algorithm::ALL);
                Some((ok, warm_start.elapsed().as_secs_f64()))
            } else {
                None
            };
            // Prepare the handle the request resolves to, so the timing
            // split attributes its build cost to the prepare phase.
            let prepare_start = Instant::now();
            session.prepared(request.resolved_algorithm(d))?;
            let prepare_seconds = prepare_start.elapsed().as_secs_f64();
            let response = session.run(&request)?;
            match args.format {
                Format::Text => Ok(render_text(
                    args,
                    &headers,
                    &session.data(),
                    &response.solution,
                    warm,
                    prepare_seconds,
                    response.seconds,
                )),
                Format::Json => Ok(render_json(
                    args,
                    &session.data(),
                    &request,
                    &response.solution,
                    warm,
                    prepare_seconds,
                    response.seconds,
                    exec.effective_threads(),
                )),
            }
        }
        Command::Frontier { max_size } => {
            if d != 2 {
                return Err(RrmError::Unsupported(
                    "frontier requires exactly 2 columns (use --columns)".into(),
                ));
            }
            // The frontier is a property of the exact 2D sweep; silently
            // computing it with 2DRRM after the user asked for another
            // algorithm would misattribute the output.
            if let Some(a) = args.algo {
                if a != Algorithm::TwoDRrm {
                    return Err(RrmError::Unsupported(format!(
                        "frontier is computed by the exact 2D sweep (2DRRM); --algo {a} is not supported here"
                    )));
                }
            }
            let start = Instant::now();
            let points = pareto_frontier(&data, max_size, &FullSpace::new(2), exec)?;
            let seconds = start.elapsed().as_secs_f64();
            match args.format {
                Format::Text => {
                    let mut out = String::new();
                    use std::fmt::Write as _;
                    let _ = writeln!(out, "{}", loaded_line(args, &data));
                    let _ = writeln!(out, "{:>6} {:>18}", "size", "best worst-rank");
                    for p in &points {
                        let _ = writeln!(out, "{:>6} {:>18}", p.r, p.regret);
                    }
                    Ok(out)
                }
                Format::Json => {
                    let mut out = String::new();
                    use std::fmt::Write as _;
                    let _ = write!(
                        out,
                        "{{\"command\":\"frontier\",\"input\":{},\"n\":{},\"d\":{},\
                         \"algorithm\":\"2DRRM\",\"threads\":{},\"max_size\":{max_size},\
                         \"frontier\":[",
                        json_string(&args.input),
                        data.n(),
                        data.dim(),
                        exec.effective_threads(),
                    );
                    for (i, p) in points.iter().enumerate() {
                        let sep = if i == 0 { "" } else { "," };
                        let _ = write!(out, "{sep}{{\"r\":{},\"regret\":{}}}", p.r, p.regret);
                    }
                    let _ = writeln!(out, "],\"seconds\":{}}}", json_f64(seconds));
                    Ok(out)
                }
            }
        }
    }
}

fn loaded_line(args: &Args, data: &Dataset) -> String {
    let summary = rrm_data::stats::summarize(data);
    format!(
        "loaded {} tuples x {} attributes from {} (mean pairwise correlation {:+.2})",
        data.n(),
        data.dim(),
        args.input,
        summary.mean_pairwise_correlation()
    )
}

#[allow(clippy::too_many_arguments)]
fn render_text(
    args: &Args,
    headers: &[String],
    data: &Dataset,
    sol: &Solution,
    warm: Option<(usize, f64)>,
    prepare_seconds: f64,
    query_seconds: f64,
) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", loaded_line(args, data));
    if let Some((ok, seconds)) = warm {
        let _ =
            writeln!(out, "warmed {ok}/{} prepared solvers in {seconds:.3}s", Algorithm::ALL.len());
    }
    let _ = writeln!(
        out,
        "{}: {} tuples, certified rank-regret {} (prepared in {:.3}s, answered in {:.3}s)",
        sol.algorithm,
        sol.size(),
        sol.certified_regret.map_or("n/a".into(), |k| k.to_string()),
        prepare_seconds,
        query_seconds,
    );
    if let crate::TerminatedBy::Sampled { eps, delta, directions } = sol.terminated_by {
        // Not an early stop: the sampled tier ran to completion at its
        // requested fidelity.
        let _ = writeln!(
            out,
            "approx: regret certified over {directions} sampled directions \
             (holds on all but an eps = {eps} fraction of directions with \
             probability >= {:.3})",
            1.0 - delta,
        );
    } else if sol.terminated_by.is_early_stop() {
        let _ = match sol.bounds {
            Some(b) => writeln!(
                out,
                "anytime: stopped early ({}); optimum within [{}, {}], gap {:.3}",
                sol.terminated_by.name(),
                b.lower,
                b.upper,
                b.gap(),
            ),
            None => writeln!(out, "anytime: stopped early ({})", sol.terminated_by.name()),
        };
    }
    let _ = writeln!(out, "{:>8}  {}", "row", headers.join("  "));
    for &i in &sol.indices {
        let vals: Vec<String> = data.row(i as usize).iter().map(|v| format!("{v:.4}")).collect();
        let _ = writeln!(out, "{:>8}  {}", i, vals.join("  "));
    }
    out
}

/// Hand-rolled JSON solution report (the offline-vendor constraint rules
/// out serde; the grammar here is tiny and fully escaped).
#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &Args,
    data: &Dataset,
    request: &Request,
    sol: &Solution,
    warm: Option<(usize, f64)>,
    prepare_seconds: f64,
    query_seconds: f64,
    threads: usize,
) -> String {
    let command = match args.command {
        Command::Minimize { .. } => "minimize",
        Command::Represent { .. } => "represent",
        Command::Frontier { .. } => "frontier",
    };
    let indices: Vec<String> = sol.indices.iter().map(|i| i.to_string()).collect();
    let certified = sol.certified_regret.map_or("null".to_string(), |k| k.to_string());
    let warmed = warm.map_or(String::new(), |(ok, seconds)| {
        format!("\"warmed\":{ok},\"warm_seconds\":{},", json_f64(seconds))
    });
    let bounds = sol
        .bounds
        .map_or("null".to_string(), |b| format!("{{\"lower\":{},\"upper\":{}}}", b.lower, b.upper));
    let gap = sol.gap().map_or("null".to_string(), json_f64);
    let confidence = match sol.terminated_by {
        crate::TerminatedBy::Sampled { eps, delta, directions } => format!(
            "{{\"eps\":{},\"delta\":{},\"directions\":{directions}}}",
            json_f64(eps),
            json_f64(delta),
        ),
        _ => "null".to_string(),
    };
    format!(
        "{{\"command\":\"{command}\",\"input\":{input},\"n\":{n},\"d\":{d},\
         \"param\":{param},\"algorithm\":\"{algo}\",\"fidelity\":\"{fidelity}\",\
         \"threads\":{threads},\
         \"indices\":[{indices}],\
         \"size\":{size},\"certified_regret\":{certified},\
         \"bounds\":{bounds},\"gap\":{gap},\"confidence\":{confidence},\
         \"terminated_by\":\"{terminated}\",{warmed}\
         \"prepare_seconds\":{prep},\"query_seconds\":{query}}}\n",
        input = json_string(&args.input),
        n = data.n(),
        d = data.dim(),
        param = request.param(),
        algo = sol.algorithm,
        fidelity = sol.fidelity().name(),
        indices = indices.join(","),
        size = sol.size(),
        terminated = sol.terminated_by.name(),
        prep = json_f64(prepare_seconds),
        query = json_f64(query_seconds),
    )
}

/// Escape a string per RFC 8259.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity; timings are finite, but keep the encoder
/// total anyway.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_minimize() {
        let a = parse_args(&argv("minimize --input cars.csv --size 5")).unwrap();
        assert_eq!(a.command, Command::Minimize { size: 5 });
        assert_eq!(a.input, "cars.csv");
        assert!(a.has_header && a.normalize && !a.quick);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse_args(&argv(
            "represent --input x.csv --threshold 7 --no-header --columns 0,2 \
             --negate 1 --no-normalize --weak-ranking 1 --quick",
        ))
        .unwrap();
        assert_eq!(a.command, Command::Represent { threshold: 7 });
        assert!(!a.has_header && !a.normalize && a.quick);
        assert_eq!(a.columns, Some(vec![0, 2]));
        assert_eq!(a.negate, vec![1]);
        assert_eq!(a.weak_ranking, Some(1));
    }

    #[test]
    fn parses_algo_flag_through_the_registry() {
        let a = parse_args(&argv("minimize --input x.csv --size 3 --algo mdrc")).unwrap();
        assert_eq!(a.algo, Some(Algorithm::Mdrc));
        let a = parse_args(&argv("minimize --input x.csv --size 3 --algo MDRRR-r")).unwrap();
        assert_eq!(a.algo, Some(Algorithm::MdrrrR));
        // A typo errors and lists every valid name.
        let err = parse_args(&argv("minimize --input x.csv --size 3 --algo mdrx")).unwrap_err();
        assert!(err.contains("valid names"), "{err}");
        assert!(err.contains("HDRRM"), "{err}");
    }

    #[test]
    fn algo_flag_drives_the_solver_end_to_end() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("algo.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        let base = format!("minimize --input {} --size 1 --no-normalize", path.display());
        // Brute force agrees with the exact 2D solver on Table I.
        let report =
            run(&parse_args(&argv(&format!("{base} --algo bruteforce"))).unwrap()).unwrap();
        assert!(report.contains("BruteForce: 1 tuples"), "{report}");
        assert!(report.contains("certified rank-regret 3"), "{report}");
        // A no-guarantee baseline reports n/a instead of a certificate.
        let report = run(&parse_args(&argv(&format!("{base} --algo mdrms"))).unwrap()).unwrap();
        assert!(report.contains("MDRMS"), "{report}");
        assert!(report.contains("n/a"), "{report}");
        // Capability mismatch surfaces as a clean error: MDRRR + RRRM.
        let res =
            run(&parse_args(&argv(&format!("{base} --algo mdrrr --weak-ranking 1"))).unwrap());
        assert!(matches!(res, Err(RrmError::Unsupported(_))), "{res:?}");
        // Frontier is 2DRRM-only: any other --algo errors instead of being
        // silently ignored.
        let frontier = format!("frontier --input {} --max-size 3", path.display());
        let res = run(&parse_args(&argv(&format!("{frontier} --algo hdrrm"))).unwrap());
        assert!(
            matches!(&res, Err(RrmError::Unsupported(msg)) if msg.contains("2DRRM")),
            "{res:?}"
        );
        assert!(run(&parse_args(&argv(&format!("{frontier} --algo 2drrm"))).unwrap()).is_ok());
    }

    #[test]
    fn parses_threads_flag() {
        let a = parse_args(&argv("minimize --input x.csv --size 1")).unwrap();
        assert_eq!(a.threads, None);
        let a = parse_args(&argv("minimize --input x.csv --size 1 --threads 4")).unwrap();
        assert_eq!(a.threads, Some(4));
        let a = parse_args(&argv("minimize --input x.csv --size 1 --threads 0")).unwrap();
        assert_eq!(a.threads, Some(0), "0 = all cores");
        assert!(parse_args(&argv("minimize --input x.csv --size 1 --threads four")).is_err());
    }

    #[test]
    fn threads_flag_is_a_pure_speed_knob() {
        // Same CSV, 1 vs 7 threads: byte-identical text reports apart from
        // the timing fields — compare the solution lines only.
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("threads.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        let run_with = |t: usize| {
            let args = parse_args(&argv(&format!(
                "minimize --input {} --size 2 --no-normalize --threads {t} --format json",
                path.display()
            )))
            .unwrap();
            run(&args).unwrap()
        };
        let one = run_with(1);
        let seven = run_with(7);
        assert!(one.contains("\"threads\":1"), "{one}");
        assert!(seven.contains("\"threads\":7"), "{seven}");
        let indices = |s: &str| {
            let start = s.find("\"indices\"").unwrap();
            s[start..s.find(",\"size\"").unwrap()].to_string()
        };
        assert_eq!(indices(&one), indices(&seven), "thread count changed the answer");
        // Frontier JSON reports the thread count too.
        let args = parse_args(&argv(&format!(
            "frontier --input {} --max-size 3 --threads 2 --format json",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"threads\":2"), "{report}");
    }

    #[test]
    fn warm_flag_prepares_everything_up_front() {
        let a = parse_args(&argv("minimize --input x.csv --size 1")).unwrap();
        assert!(!a.warm);
        let a = parse_args(&argv("minimize --input x.csv --size 1 --warm")).unwrap();
        assert!(a.warm);

        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        let report = run(&parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --warm --quick",
            path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(report.contains("warmed 9/9 prepared solvers"), "{report}");
        let report = run(&parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --warm --quick --format json",
            path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(report.contains("\"warmed\":9,\"warm_seconds\":"), "{report}");
        // The answer itself is unchanged by warming.
        assert!(report.contains("\"indices\":[2]"), "{report}");
    }

    #[test]
    fn parses_format_flag() {
        let a = parse_args(&argv("minimize --input x.csv --size 1")).unwrap();
        assert_eq!(a.format, Format::Text);
        let a = parse_args(&argv("minimize --input x.csv --size 1 --format json")).unwrap();
        assert_eq!(a.format, Format::Json);
        let a = parse_args(&argv("minimize --input x.csv --size 1 --format text")).unwrap();
        assert_eq!(a.format, Format::Text);
        let err = parse_args(&argv("minimize --input x.csv --size 1 --format xml")).unwrap_err();
        assert!(err.contains("expected text or json"), "{err}");
    }

    #[test]
    fn json_report_is_machine_readable() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("json.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --format json",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        // Table I ground truth, now as JSON fields.
        assert!(report.contains("\"command\":\"minimize\""), "{report}");
        assert!(report.contains("\"algorithm\":\"2DRRM\""), "{report}");
        assert!(report.contains("\"indices\":[2]"), "{report}");
        assert!(report.contains("\"certified_regret\":3"), "{report}");
        assert!(report.contains("\"n\":7,\"d\":2"), "{report}");
        assert!(report.contains("\"prepare_seconds\":"), "{report}");
        assert!(report.contains("\"query_seconds\":"), "{report}");
        // No-certificate algorithms emit null, not a fake number.
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --format json --algo mdrms",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"certified_regret\":null"), "{report}");
        // Frontier as JSON.
        let args = parse_args(&argv(&format!(
            "frontier --input {} --max-size 3 --format json",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"command\":\"frontier\""), "{report}");
        assert!(report.contains("\"frontier\":[{\"r\":1,\"regret\":"), "{report}");
    }

    #[test]
    fn parses_anytime_flags() {
        let a = parse_args(&argv("minimize --input x.csv --size 5")).unwrap();
        assert_eq!(a.time_limit_ms, None);
        assert_eq!(a.gap, None);
        let a = parse_args(&argv("minimize --input x.csv --size 5 --time-limit-ms 250")).unwrap();
        assert_eq!(a.time_limit_ms, Some(250));
        let a = parse_args(&argv("minimize --input x.csv --size 5 --gap 0.25")).unwrap();
        assert_eq!(a.gap, Some(0.25));
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --gap 1.5")).is_err());
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --gap nope")).is_err());
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --time-limit-ms x")).is_err());
    }

    #[test]
    fn json_report_carries_anytime_fields() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("anytime.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        // The exact 2D solver tracks no anytime bounds.
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --format json",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"bounds\":null,\"gap\":null"), "{report}");
        assert!(report.contains("\"terminated_by\":\"completed\""), "{report}");
        // A completed HDRRM run certifies a closed bound (gap 0).
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 2 --no-normalize --format json --algo hdrrm --quick",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"terminated_by\":\"completed\""), "{report}");
        assert!(report.contains("\"gap\":0"), "{report}");
        assert!(report.contains("\"bounds\":{\"lower\":"), "{report}");
        // A trivially satisfied gap target stops the search immediately
        // and deterministically, returning the incumbent with its bounds.
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 2 --no-normalize --format json --algo hdrrm --quick \
             --gap 1.0",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"terminated_by\":\"gap\""), "{report}");
        // A generous time limit alongside the gap target: both limits
        // apply, and the gap is reached long before the minute is up.
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 2 --no-normalize --format json --algo hdrrm --quick \
             --time-limit-ms 60000 --gap 1.0",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("\"terminated_by\":\"gap\""), "{report}");
        // Same cut in text mode announces the early stop with the bounds.
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 2 --no-normalize --algo hdrrm --quick --gap 1.0",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("anytime: stopped early (gap)"), "{report}");
    }

    #[test]
    fn parses_approx_flag() {
        let a = parse_args(&argv("minimize --input x.csv --size 5")).unwrap();
        assert_eq!(a.approx, None);
        let a = parse_args(&argv("minimize --input x.csv --size 5 --approx 0.1")).unwrap();
        assert_eq!(a.approx, Some(ApproxSpec { eps: 0.1, delta: ApproxSpec::default().delta }));
        let a = parse_args(&argv("minimize --input x.csv --size 5 --approx 0.1,0.01")).unwrap();
        assert_eq!(a.approx, Some(ApproxSpec { eps: 0.1, delta: 0.01 }));
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --approx nope")).is_err());
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --approx 1.5")).is_err());
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --approx 0.1,2.0")).is_err());
    }

    #[test]
    fn approx_flag_answers_at_sampled_fidelity() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("approx.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        let report = run(&parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --approx 0.05 --format json",
            path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(report.contains("\"algorithm\":\"Sampled\""), "{report}");
        assert!(report.contains("\"fidelity\":\"approx\""), "{report}");
        assert!(report.contains("\"terminated_by\":\"sampled\""), "{report}");
        assert!(report.contains("\"confidence\":{\"eps\":0.05,\"delta\":0.05"), "{report}");
        // Table I: {t3} stays the size-1 optimum at sampled fidelity.
        assert!(report.contains("\"indices\":[2]"), "{report}");
        // Text mode announces the confidence statement, not an early stop.
        let report = run(&parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --approx 0.05",
            path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(report.contains("approx: regret certified over"), "{report}");
        assert!(!report.contains("stopped early"), "{report}");
        // Exact runs say so in JSON.
        let report = run(&parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize --format json",
            path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(report.contains("\"fidelity\":\"exact\""), "{report}");
        assert!(report.contains("\"confidence\":null"), "{report}");
    }

    #[test]
    fn a_forced_sampled_answer_reports_its_own_fidelity() {
        // An exact request pinned to the sampled tier gets a sampled-ε
        // answer, and the report states the answer's fidelity, as a
        // served response does.
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forced_sampled.csv");
        std::fs::write(&path, "a,b\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n1.0,0.0\n").unwrap();
        let report = run(&parse_args(&argv(&format!(
            "minimize --input {} --size 1 --algo sampled --format json",
            path.display()
        )))
        .unwrap())
        .unwrap();
        assert!(report.contains("\"terminated_by\":\"sampled\""), "{report}");
        assert!(report.contains("\"fidelity\":\"approx\""), "{report}");
        assert!(report.contains("\"confidence\":{\"eps\":"), "{report}");
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("plain.csv"), "\"plain.csv\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("ctrl\u{1}"), "\"ctrl\\u0001\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn rejects_missing_required() {
        assert!(parse_args(&argv("minimize --size 5")).is_err());
        assert!(parse_args(&argv("minimize --input x.csv")).is_err());
        assert!(parse_args(&argv("frontier --input x.csv")).is_err());
        assert!(parse_args(&argv("bogus --input x.csv")).is_err());
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("minimize --input x.csv --size five")).is_err());
        assert!(parse_args(&argv("minimize --input x.csv --size 5 --wat")).is_err());
    }

    #[test]
    fn end_to_end_minimize_on_temp_csv() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cars.csv");
        std::fs::write(
            &path,
            "hp,mpg\n0.0,1.0\n0.4,0.95\n0.57,0.75\n0.79,0.6\n0.2,0.5\n0.35,0.3\n1.0,0.0\n",
        )
        .unwrap();
        let args = parse_args(&argv(&format!(
            "minimize --input {} --size 1 --no-normalize",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("7 tuples x 2 attributes"));
        assert!(report.contains("certified rank-regret 3"), "{report}");
        assert!(report.contains("0.5700"), "{report}"); // t3's HP
    }

    #[test]
    fn end_to_end_frontier_and_errors() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.csv");
        std::fs::write(&path, "a,b,c\n1,2,3\n3,2,1\n2,3,1\n1,1,1\n").unwrap();
        // Frontier on 3 columns: rejected.
        let args = parse_args(&argv(&format!("frontier --input {} --max-size 3", path.display())))
            .unwrap();
        assert!(run(&args).is_err());
        // Projected to 2 columns: works.
        let args = parse_args(&argv(&format!(
            "frontier --input {} --max-size 3 --columns 0,1",
            path.display()
        )))
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("best worst-rank"), "{report}");
    }

    #[test]
    fn negate_makes_smaller_better() {
        let dir = std::env::temp_dir().join("rrm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("price.csv");
        // Tuple 0 dominates once price (col 1) is negated: best quality,
        // lowest price.
        std::fs::write(&path, "quality,price\n0.9,10\n0.8,50\n0.7,90\n").unwrap();
        let args =
            parse_args(&argv(&format!("minimize --input {} --size 1 --negate 1", path.display())))
                .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("certified rank-regret 1"), "{report}");
    }
}
