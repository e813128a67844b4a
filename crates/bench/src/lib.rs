//! # mercury-bench — regenerating the paper's tables and figures
//!
//! Every archived number lives in `results/`, one JSON file per suite,
//! each of the shape `{"provenance": {commit, command, seed, rustc,
//! host, wall_s}, "metrics": {…}}` written by [`run_archived`].  The
//! `all` binary regenerates every archive in one process, so no archive
//! can come from a stale sibling build; `tools/benchgate.py` gates a
//! fresh `results/` directory against the committed one.
//!
//! Binaries (run with `cargo run -p mercury-bench --release --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `all` | every archive below, with the commands listed |
//! | `table1` / `table2` | Table 1 / 2 — lmbench latencies, UP / SMP (stdout; archived by `all` in `paper`) |
//! | `fig3` / `fig4` | Fig. 3 / 4 — relative application performance, UP / SMP (stdout; archived in `paper`) |
//! | `mode_switch` | §7.4 — mode switch times per strategy, sharded-vs-serial attach (`mode_switch`) |
//! | `switch_timeline` | §7.3 — per-phase switch decomposition via merctrace (`switch_timeline`, plus the Chrome trace `switch_timeline.trace.json`) |
//! | `fault_campaign` | DESIGN.md §12 — seeded dependability campaigns (`faults`; `all` runs `--seed 7`) |
//! | `serving_tail` | DESIGN.md §13/§15 — serving tails (`serving`; `all` runs `--seed 11 --live-update`) and, with `--fleet`, the fleet run (`fleet`; `all` runs `--seed 11 --fleet --live-update`) |
//! | `ablation_tracking`, `hw_assist`, `scalability`, `probe_dbench` | stdout-only studies, not archived |
//!
//! Host-time performance of the simulator itself is measured by the
//! standalone `perfbench/` package.

pub mod faults;
pub mod mode_switch;
pub mod paper;
pub mod serving;
pub mod switch_timeline;

use mercury::{Mercury, SwitchOutcome, TrackingStrategy};
use mercury_workloads::configs::{switch_with_peers, SysKind, TestBed};
use simx86::costs::cycles_to_us;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::Instant;

/// A JSON document for the bench archives.
///
/// Objects keep insertion order.  A container holding only scalars
/// renders on one line, so a per-fault or per-scenario row stays one
/// line of the archive; everything else is indented two spaces per
/// level.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (cycle counts, seeds, sample counts).
    Int(i128),
    /// A float, written with at most six decimals; non-finite values
    /// render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The rendered document, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Num(x) if x.is_finite() => {
                let fixed = format!("{x:.6}");
                let trimmed = fixed.trim_end_matches('0');
                out.push_str(trimmed);
                if trimmed.ends_with('.') {
                    out.push('0');
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let items: Vec<(Option<&str>, &Json)> = items.iter().map(|v| (None, v)).collect();
                write_container(out, indent, ('[', ']'), &items);
            }
            Json::Obj(pairs) => {
                let items: Vec<(Option<&str>, &Json)> =
                    pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_container(out, indent, ('{', '}'), &items);
            }
        }
    }
}

fn write_container(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    items: &[(Option<&str>, &Json)],
) {
    let inline = items.iter().all(|(_, v)| !v.is_container());
    out.push(open);
    for (i, (key, value)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
            if inline {
                out.push(' ');
            }
        }
        if !inline {
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    if !inline && !items.is_empty() {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, i64);

impl<V: Into<Json>> From<Option<V>> for Json {
    fn from(v: Option<V>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<V: Into<Json>> From<BTreeMap<String, V>> for Json {
    fn from(map: BTreeMap<String, V>) -> Json {
        Json::Obj(map.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

/// Where every archive is written, relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// One suite's result: the archive it fills and whether the suite's
/// own gates held.
#[derive(Debug)]
pub struct Outcome {
    /// Archive name: the suite writes `results/<name>.json`.
    pub name: &'static str,
    /// The archive's `metrics` section.
    pub metrics: Json,
    /// Every gate the suite checks on itself held.
    pub ok: bool,
}

/// Run one suite and write `results/<name>.json` as `{provenance,
/// metrics}`.  `command` is the canonical command line that reproduces
/// the run (benchgate compares archives only when these match) and
/// `seed` its seed, `None` for suites that take none.  Returns whether
/// the suite's own gates held.
pub fn run_archived(command: &str, seed: Option<u64>, suite: impl FnOnce() -> Outcome) -> bool {
    let origin = origin();
    let start = Instant::now();
    let out = suite();
    let wall_s = start.elapsed().as_secs_f64();
    let doc = Json::obj([
        (
            "provenance",
            Json::obj([
                ("commit", origin.commit.as_str().into()),
                ("command", command.into()),
                ("seed", seed.into()),
                ("rustc", origin.rustc.as_str().into()),
                ("host", origin.host.as_str().into()),
                ("wall_s", wall_s.into()),
            ]),
        ),
        ("metrics", out.metrics),
    ]);
    let path = format!("{RESULTS_DIR}/{}.json", out.name);
    std::fs::create_dir_all(RESULTS_DIR).expect("create results/");
    std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path} ({wall_s:.1} s)");
    out.ok
}

/// Exit with status 0 if `ok`, 1 otherwise.
pub fn exit_with(ok: bool) -> ! {
    std::process::exit(if ok { 0 } else { 1 })
}

/// The provenance fields that do not vary per suite.
struct Origin {
    commit: String,
    rustc: String,
    host: String,
}

/// Read once per process, before the first archive is written: the
/// commit of the checkout this crate was built from (`-dirty` when
/// tracked files outside `results/` differ from it), the `rustc` on
/// `PATH`, and the host's architecture, OS, core count and CPU model.
/// Each reads `unknown` when it cannot be determined.
fn origin() -> &'static Origin {
    static ORIGIN: OnceLock<Origin> = OnceLock::new();
    ORIGIN.get_or_init(|| {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let git = |args: &[&str]| stdout_of("git", &[&["-C", root], args].concat());
        let commit = match git(&["rev-parse", "HEAD"]) {
            Some(head) => match git(&[
                "status",
                "--porcelain",
                "--untracked-files=no",
                "--",
                ".",
                ":!results",
            ]) {
                Some(changes) if changes.is_empty() => head,
                _ => format!("{head}-dirty"),
            },
            None => "unknown".to_string(),
        };
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|l| {
                    Some(
                        l.strip_prefix("model name")?
                            .split_once(':')?
                            .1
                            .trim()
                            .to_string(),
                    )
                })
            });
        Origin {
            commit,
            rustc: stdout_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            host: format!(
                "{}-{}, {cpus} cpus, {}",
                std::env::consts::ARCH,
                std::env::consts::OS,
                model.as_deref().unwrap_or("unknown cpu")
            ),
        }
    })
}

/// Trimmed stdout of a successful `program args…` run.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Command-line options of `fault_campaign` and `serving_tail`.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Binary name, the head of [`Opts::command`].
    pub bin: &'static str,
    /// `--seed N`.
    pub seed: u64,
    /// `--campaign`: the nightly ~100x sizing instead of the full
    /// sizing `all` archives.
    pub campaign: bool,
    /// `--fleet` (`serving_tail` only).
    pub fleet: bool,
    /// `--live-update` (`serving_tail` only).
    pub live_update: bool,
}

impl Opts {
    /// Full-size defaults for `bin`.
    pub fn new(bin: &'static str, seed: u64) -> Opts {
        Opts {
            bin,
            seed,
            campaign: false,
            fleet: false,
            live_update: false,
        }
    }

    /// Parse the process arguments; `flags` lists the switches `bin`
    /// accepts besides `--seed N`.
    pub fn from_args(bin: &'static str, seed: u64, flags: &[&str]) -> Opts {
        let mut o = Opts::new(bin, seed);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--seed" => {
                    o.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed takes an integer")
                }
                f if !flags.contains(&f) => {
                    panic!(
                        "unknown argument {f:?} (use --seed N / {})",
                        flags.join(" / ")
                    )
                }
                "--campaign" => o.campaign = true,
                "--fleet" => o.fleet = true,
                "--live-update" => o.live_update = true,
                other => unreachable!("flag {other:?} has no handler"),
            }
        }
        o
    }

    /// The canonical command line, archived as `provenance.command`.
    pub fn command(&self) -> String {
        let mut cmd = format!("{} --seed {}", self.bin, self.seed);
        for (on, flag) in [
            (self.campaign, "--campaign"),
            (self.fleet, "--fleet"),
            (self.live_update, "--live-update"),
        ] {
            if on {
                cmd.push(' ');
                cmd.push_str(flag);
            }
        }
        cmd
    }
}

/// Run `pass` twice with the same configuration and return both
/// results plus the host seconds of the first.  Equal results are the
/// determinism gate (DESIGN.md §14.3).
pub fn run_twice<T>(mut pass: impl FnMut() -> T) -> (T, T, f64) {
    let start = Instant::now();
    let first = pass();
    let host_seconds = start.elapsed().as_secs_f64();
    (first, pass(), host_seconds)
}

/// The `sim_speed` section of a campaign archive: `sim_mcycles`
/// simulated Mcycles (a deterministic archived quantity, never a
/// machine clock) covered by one pass, over that pass's host seconds.
pub fn sim_speed(sim_mcycles: f64, host_seconds: f64) -> Json {
    let per_s = sim_mcycles / host_seconds.max(1e-9);
    eprintln!(
        "sim_speed: {sim_mcycles:.1} simulated Mcycles in {host_seconds:.2}s host \
         ({per_s:.1} Mcycles/s)"
    );
    Json::obj([
        ("sim_mcycles", sim_mcycles.into()),
        ("host_seconds", host_seconds.into()),
        ("mcycles_per_host_second", per_s.into()),
    ])
}

/// Measured mode-switch times for one strategy.
#[derive(Debug, Clone)]
pub struct SwitchTimes {
    /// Strategy name.
    pub strategy: String,
    /// Mean native→virtual time (µs), all samples.
    pub attach_us: f64,
    /// First (cold) native→virtual time (µs).  Under the dirty-baseline
    /// strategies there is no full-table cold attach any more: the
    /// boot-time pre-cache arms the snapshot at install, so even the
    /// first attach pays only for the frames dirtied since boot.  For
    /// the legacy strategies this is the full-rate first validation.
    pub cold_attach_us: f64,
    /// Mean of the warm re-attaches (µs): every sample after the first.
    pub warm_attach_us: f64,
    /// Mean virtual→native time (µs).
    pub detach_us: f64,
    /// Samples taken.
    pub samples: u32,
}

/// Sharded-vs-serial attach-time `page_info` recompute on an SMP rig
/// (§5.4 work phase: parked rendezvous peers pull frame chunks).
#[derive(Debug, Clone)]
pub struct ShardedRecompute {
    /// Simulated CPUs on the rig (1 control processor + peers).
    pub cpus: usize,
    /// Mean attach-time recompute cost, serial walk on the CP (µs).
    pub serial_pginfo_us: f64,
    /// Mean attach-time recompute cost, sharded across the rendezvoused
    /// peers — the CP charges the makespan, not the sum (µs).
    pub sharded_pginfo_us: f64,
    /// `serial / sharded`.
    pub speedup: f64,
    /// Samples per variant.
    pub samples: u32,
}

impl SwitchTimes {
    /// The archived form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", self.strategy.as_str().into()),
            ("attach_us", self.attach_us.into()),
            ("cold_attach_us", self.cold_attach_us.into()),
            ("warm_attach_us", self.warm_attach_us.into()),
            ("detach_us", self.detach_us.into()),
            ("samples", self.samples.into()),
        ])
    }
}

impl ShardedRecompute {
    /// The archived form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cpus", self.cpus.into()),
            ("serial_pginfo_us", self.serial_pginfo_us.into()),
            ("sharded_pginfo_us", self.sharded_pginfo_us.into()),
            ("speedup", self.speedup.into()),
            ("samples", self.samples.into()),
        ])
    }
}

/// Measure attach/detach round trips on a fresh M-N system.
pub fn measure_switch_times(strategy: TrackingStrategy, samples: u32) -> SwitchTimes {
    let bed = if strategy == TrackingStrategy::RecomputeOnSwitch {
        TestBed::build(SysKind::MN, 1)
    } else {
        TestBed::build_mn_with_strategy(1, strategy)
    };
    measure_on(&bed, samples)
}

/// Build a uniprocessor M-N testbed with an explicit frame-accounting
/// strategy (the standard testbed always uses the paper's recompute
/// default).  Kept for the ablation binaries; delegates to
/// [`TestBed::build_mn_with_strategy`].
pub fn build_mn_with_strategy(strategy: TrackingStrategy) -> (TestBed, std::sync::Arc<Mercury>) {
    let bed = TestBed::build_mn_with_strategy(1, strategy);
    let mercury = std::sync::Arc::clone(bed.mercury.as_ref().expect("M-N testbed has mercury"));
    (bed, mercury)
}

/// Warm a bed the same way for every measurement: a real process and a
/// 128-page dirty mapping, so the transfer functions have work to do.
fn warm(bed: &TestBed) -> nimbus::Session {
    let sess = bed.session(0);
    sess.exec("lat_proc").expect("exec");
    let va = sess
        .mmap(128, nimbus::mm::Prot::RW, nimbus::kernel::MmapBacking::Anon)
        .expect("mmap");
    for p in 0..128u64 {
        sess.poke(simx86::VirtAddr(va.0 + p * 4096), p)
            .expect("touch");
    }
    sess
}

fn measure_on(bed: &TestBed, samples: u32) -> SwitchTimes {
    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
    let cpu = bed.machine.boot_cpu();
    let _sess = warm(bed);
    let mut attach_total = 0u64;
    let mut detach_total = 0u64;
    let mut cold = 0u64;
    for i in 0..samples {
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_virtual(cpu).expect("attach")
        else {
            panic!("attach did not complete")
        };
        attach_total += cycles;
        if i == 0 {
            cold = cycles;
        }
        let SwitchOutcome::Completed { cycles } = mercury.switch_to_native(cpu).expect("detach")
        else {
            panic!("detach did not complete")
        };
        detach_total += cycles;
    }
    let warm_samples = samples.saturating_sub(1).max(1);
    SwitchTimes {
        strategy: format!("{:?}", mercury.strategy()),
        attach_us: cycles_to_us(attach_total) / samples as f64,
        cold_attach_us: cycles_to_us(cold),
        warm_attach_us: cycles_to_us(attach_total - cold) / warm_samples as f64,
        detach_us: cycles_to_us(detach_total) / samples as f64,
        samples,
    }
}

/// Measure the attach-time `page_info` recompute on a `cpus`-way M-N
/// rig, serial vs sharded.  The peers are serviced by temporary host
/// threads exactly as the SMP testbeds do; the measured quantity is
/// `SwitchStats::last_pginfo_cycles` — the simulated cycles the control
/// processor spent in the recompute phase (serial: the whole walk;
/// sharded: dispatch + its own fair share of chunks + the makespan
/// correction for the slowest peer).
pub fn measure_sharded_recompute(cpus: usize, samples: u32) -> ShardedRecompute {
    assert!(cpus >= 2, "sharding needs at least one peer");
    let bed = TestBed::build_mn_with_strategy(cpus, TrackingStrategy::RecomputeOnSwitch);
    let mercury = bed.mercury.as_ref().expect("M-N testbed has mercury");
    let _sess = warm(&bed);

    let mut totals = [0u64; 2]; // [serial, sharded]
    for (slot, sharded) in [(0usize, false), (1, true)] {
        mercury.set_sharded_recompute(sharded);
        for _ in 0..samples {
            let out = switch_with_peers(&bed.machine, mercury, true);
            assert!(
                matches!(out, SwitchOutcome::Completed { .. }),
                "attach did not complete"
            );
            totals[slot] += mercury.stats.last_pginfo_cycles.load(Ordering::Relaxed);
            switch_with_peers(&bed.machine, mercury, false);
        }
    }
    mercury.set_sharded_recompute(true);

    let serial_us = cycles_to_us(totals[0]) / samples as f64;
    let sharded_us = cycles_to_us(totals[1]) / samples as f64;
    ShardedRecompute {
        cpus,
        serial_pginfo_us: serial_us,
        sharded_pginfo_us: sharded_us,
        speedup: serial_us / sharded_us,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_rows_stay_on_one_line() {
        let doc = Json::obj([
            ("seed", 7u64.into()),
            ("name", "a\"b\\c\n".into()),
            (
                "rows",
                Json::arr([Json::obj([("x", 0.5.into()), ("ok", true.into())])]),
            ),
            ("empty", Json::Arr(Vec::new())),
            ("none", None::<u64>.into()),
        ]);
        assert_eq!(
            doc.render(),
            concat!(
                "{\n",
                "  \"seed\": 7,\n",
                "  \"name\": \"a\\\"b\\\\c\\n\",\n",
                "  \"rows\": [\n",
                "    {\"x\": 0.5, \"ok\": true}\n",
                "  ],\n",
                "  \"empty\": [],\n",
                "  \"none\": null\n",
                "}\n"
            )
        );
    }

    #[test]
    fn commands_are_canonical() {
        // The committed archives carry these strings; benchgate bands a
        // fresh archive only when its command matches exactly.
        let mut o = Opts::new("serving_tail", 11);
        o.live_update = true;
        assert_eq!(o.command(), "serving_tail --seed 11 --live-update");
        o.fleet = true;
        o.campaign = true;
        assert_eq!(
            o.command(),
            "serving_tail --seed 11 --campaign --fleet --live-update"
        );
        assert_eq!(
            Opts::new("fault_campaign", 7).command(),
            "fault_campaign --seed 7"
        );
    }

    #[test]
    fn floats_use_at_most_six_decimals() {
        let render = |x: f64| Json::Num(x).render().trim_end().to_string();
        assert_eq!(render(17.509), "17.509");
        assert_eq!(render(1.0 / 3.0), "0.333333");
        assert_eq!(render(212.0), "212.0");
        assert_eq!(render(-2.5), "-2.5");
        assert_eq!(render(f64::NAN), "null");
    }
}
