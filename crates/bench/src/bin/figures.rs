//! Renders the paper's tables from sweep rows, the last step of the one
//! reproduction pipeline:
//!
//! ```sh
//! cargo run --release -p bench --bin figures                     # committed goldens
//! cargo run --release -p bench --bin figures -- SPEC CSV [...]   # fresh sweep output
//! ```
//!
//! Each `SPEC CSV` pair is a sweep spec and the CSV `sweep --spec SPEC`
//! wrote for it (default: `specs/<name>.json` and `.golden.csv` for the
//! committed figure specs, relative to the repository root). Which views
//! a pair renders follows from its spec's axes; a selected view whose
//! rows are missing is an error. A cell's number is the mean of its `ok`
//! rows (tables of means also give the largest 95% confidence interval),
//! or a ratio of counters summed over them. A workload grid reads its
//! Mesh and Ideal baselines from any loaded grid run with the same seed
//! and windows. Table I, Figure 8 and the zero-load FRFC table come from
//! the models.

use std::process::ExitCode;

use nistats::{geometric_mean, Summary};
use noc::config::{NocConfig, NocConfigBuilder};
use noc::flit::Packet;
use noc::network::Network;
use noc::stats::NetStats;
use noc::types::{MessageClass, NodeId, PacketId};
use noc::zeroload::{ideal_latency, mesh_latency, smart_latency};
use runner::{Organization, SweepSpec, SystemSpec, CSV_HEADER, SYSTEM_CSV_HEADER};
use sysmodel::SystemParams;
use techmodel::wire::WireModel;
use techmodel::{performance_density, ChipModel, NocAreaBreakdown, NocOrganization, NocPower};
use workloads::WorkloadKind;

use Organization::{Frfc, Ideal, Mesh, MeshPra, Smart};

/// The committed specs `figures` renders by default.
const FIGURE_SPECS: [&str; 5] = ["paper", "pra_ablation", "pra_load", "hpc_sweep", "vc_sweep"];

/// One table row: a label and its formatted cells.
type Row = (String, Vec<String>);

/// Prints `## title`, the column header, the rows and an optional note.
fn table(title: &str, columns: &[&str], rows: &[Row], note: &str) {
    let line = |label: &str, cells: &mut dyn Iterator<Item = &str>| {
        let cells: String = cells.map(|c| format!("{c:>14}")).collect();
        println!("{label:<18}{cells}");
    };
    println!("## {title}\n");
    line("", &mut columns.iter().copied());
    for (label, cells) in rows {
        line(label, &mut cells.iter().map(String::as_str));
    }
    if !note.is_empty() {
        println!("\n{note}");
    }
    println!();
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

fn all(xs: &[f64], f: fn(f64) -> String) -> Vec<String> {
    xs.iter().map(|&x| f(x)).collect()
}

/// `x` relative to `base`, as a signed percentage.
fn vs(x: f64, base: f64) -> String {
    format!("{:+.1}%", (x / base - 1.0) * 100.0)
}

fn names(orgs: &[Organization]) -> Vec<&'static str> {
    orgs.iter().map(|o| o.name()).collect()
}

/// A sweep's spec and the `ok` rows of the CSV it wrote.
struct Sweep {
    spec: SweepSpec,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Sweep {
    fn load(spec_path: &str, path: &str) -> Result<Sweep, String> {
        let spec = SweepSpec::load(spec_path).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut lines = text.lines();
        let header: Vec<String> = lines
            .next()
            .unwrap_or_default()
            .split(',')
            .map(str::to_string)
            .collect();
        // The columns `sweep` writes for this kind of grid, so a renamed
        // or missing counter fails here instead of reading as zero.
        let mut expected = CSV_HEADER.to_string();
        if !spec.workloads.is_empty() {
            expected = format!("{expected},{SYSTEM_CSV_HEADER}");
        }
        if header.join(",") != expected {
            return Err(format!(
                "{path}'s header is not the one `sweep` writes for {spec_path}"
            ));
        }
        let status = header
            .iter()
            .position(|h| h == "status")
            .unwrap_or_default();
        let mut rows = Vec::new();
        for line in lines {
            let cells: Vec<String> = line.split(',').map(str::to_string).collect();
            if cells.get(status).map(String::as_str) == Some("ok") {
                rows.push(cells);
            } else {
                eprintln!("figures: {path}: skipping row {line}");
            }
        }
        Ok(Sweep { spec, header, rows })
    }

    /// The `column` values of the rows matching every `(column, value)`
    /// filter (none when a named column is absent).
    fn values(&self, filter: &[(&str, &str)], column: &str) -> Vec<f64> {
        let col = |name: &str| self.header.iter().position(|h| h == name);
        let filter: Option<Vec<(usize, &str)>> =
            filter.iter().map(|&(k, v)| Some((col(k)?, v))).collect();
        let (Some(c), Some(filter)) = (col(column), filter) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter(|r| filter.iter().all(|&(i, v)| r[i] == v))
            .filter_map(|r| r[c].parse().ok())
            .collect()
    }

    fn summary(&self, filter: &[(&str, &str)], column: &str) -> Option<Summary> {
        let v = self.values(filter, column);
        (!v.is_empty()).then(|| Summary::of(&v))
    }

    fn ipc(&self, org: Organization, wl: WorkloadKind, system: &str) -> Option<Summary> {
        self.summary(&cell(org, wl, system), "ipc")
    }

    /// The variants that differ from the paper's system only in the
    /// fields `vary` copies into it, in spec order.
    fn family(&self, vary: fn(&SystemSpec, &mut SystemSpec)) -> Vec<&SystemSpec> {
        let is_member = |s: &&SystemSpec| {
            let mut paper = SystemSpec {
                label: s.label.clone(),
                ..SystemSpec::paper()
            };
            vary(s, &mut paper);
            **s == paper
        };
        self.spec.systems.iter().filter(is_member).collect()
    }

    /// The label of the spec's unmodified paper system.
    fn paper_label(&self) -> Option<&str> {
        self.family(|_, _| {}).first().map(|s| s.label.as_str())
    }
}

fn cell(org: Organization, wl: WorkloadKind, system: &str) -> [(&'static str, &str); 3] {
    [
        ("org", org.key()),
        ("workload", wl.key()),
        ("system", system),
    ]
}

/// The largest relative 95% confidence half-width, and the fewest
/// samples, among the cell means a table reads.
struct Ci(f64, usize);

impl Ci {
    fn new() -> Ci {
        Ci(0.0, usize::MAX)
    }

    /// Records `s` and returns its mean.
    fn mean(&mut self, s: Summary) -> f64 {
        (self.0, self.1) = (self.0.max(s.relative_error()), self.1.min(s.n));
        s.mean
    }

    fn note(&self, samples: u32) -> String {
        let fewest = match self.1 {
            n if n < samples as usize => format!(", {n} where a point failed"),
            _ => String::new(),
        };
        format!(
            "each cell: mean of its {samples} samples{fewest}; largest 95% CI ±{:.1}% of its mean",
            self.0 * 100.0
        )
    }
}

/// A workload grid's views, with its peers: sweeps run with the same
/// seeds and windows, whose paper-system rows serve as its baselines.
struct Grid<'a> {
    sweep: &'a Sweep,
    peers: Vec<&'a Sweep>,
    base: &'a str,
}

impl<'a> Grid<'a> {
    fn new(sweep: &'a Sweep, all: &'a [Sweep]) -> Result<Grid<'a>, String> {
        let key = |s: &SweepSpec| (s.base_seed, s.warmup, s.measure, s.samples);
        let peers = all
            .iter()
            .filter(|p| !p.spec.workloads.is_empty() && key(&p.spec) == key(&sweep.spec))
            .collect();
        let Some(base) = sweep.paper_label() else {
            return Err(format!(
                "{} has no unmodified paper system",
                sweep.spec.name
            ));
        };
        Ok(Grid { sweep, peers, base })
    }

    fn ipc(&self, org: Organization, wl: WorkloadKind) -> Option<Summary> {
        self.sweep.ipc(org, wl, self.base)
    }

    /// The paper system's IPC for `org` on `wl`, from this grid or a peer
    /// (a workload point's seed depends only on its sample, so a peer
    /// reproduces this grid's cell bit for bit).
    fn baseline(&self, org: Organization, wl: WorkloadKind) -> Option<Summary> {
        self.peers
            .iter()
            .find_map(|p| p.ipc(org, wl, p.paper_label()?))
    }

    /// The paper system's counters for `org` on `wl`, each summed over
    /// its samples (`None` when the cell has no rows).
    fn totals(&self, org: Organization, wl: WorkloadKind) -> Option<impl Fn(&str) -> f64 + '_> {
        self.ipc(org, wl)?;
        let cell = cell(org, wl, self.base);
        Some(move |column: &str| self.sweep.values(&cell, column).iter().sum())
    }

    /// A table of IPC × `weight(org)` normalised to the first
    /// organisation, with a geometric-mean row.
    fn normalized(
        &self,
        title: &str,
        note: &str,
        workloads: &[WorkloadKind],
        orgs: &[Organization],
        weight: impl Fn(Organization) -> f64,
    ) -> Option<()> {
        let (mut rows, mut ci) = (Vec::new(), Ci::new());
        let mut ratios = vec![Vec::new(); orgs.len()];
        for &wl in workloads {
            let mut raw = Vec::new();
            for &o in orgs {
                raw.push(ci.mean(self.ipc(o, wl)?) * weight(o));
            }
            let row: Vec<f64> = raw.iter().map(|v| v / raw[0]).collect();
            for (r, v) in ratios.iter_mut().zip(&row) {
                r.push(*v);
            }
            rows.push((wl.name().to_string(), all(&row, f3)));
        }
        let gmean = ratios.iter().map(|r| f3(geometric_mean(r))).collect();
        rows.push(("GMean".to_string(), gmean));
        let note = format!("{note}\n{}", ci.note(self.sweep.spec.samples));
        table(title, &names(orgs), &rows, &note);
        Some(())
    }

    /// One row per workload of Mesh+PRA counter ratios.
    fn pra_table(
        &self,
        title: &str,
        columns: &[&str],
        note: &str,
        cells: impl Fn(&dyn Fn(&str) -> f64) -> Vec<String>,
    ) -> Option<()> {
        let mut rows = Vec::new();
        for &wl in &self.sweep.spec.workloads {
            rows.push((wl.name().to_string(), cells(&self.totals(MeshPra, wl)?)));
        }
        table(title, columns, &rows, note);
        Some(())
    }
}

fn table1() {
    let (cfg, chip) = (NocConfig::paper(), ChipModel::paper());
    let sys = SystemParams::paper();
    println!(
        "## Table I — evaluation parameters\n\n\
         Technology            32 nm, 0.9 V, 2 GHz\n\
         Processor             {} cores, {} MB NUCA LLC, {} DDR3-1600 channels\n\
         Core                  ARM Cortex-A15-like, {} mm², {} W\n\
         LLC slice             {} mm²/MB, {} mW/MB, {}-cycle tag / {}-cycle data\n\
         Mesh                  {r}x{r} mesh, {} VCs/port, {} flits/VC, {}-bit links\n\
         Multi-hop ceiling     {} tiles/cycle (85 ps/mm wires, ~1.8 mm tiles)\n\
         Memory                {} cycles DRAM latency, {} cycles/line occupancy\n",
        chip.cores,
        chip.llc_mb,
        sys.memory_controllers.len(),
        chip.core_area_mm2,
        chip.core_power_w,
        chip.sram.area_mm2_per_mb,
        chip.sram.power_w_per_mb * 1000.0,
        sys.llc_tag_cycles,
        sys.llc_data_cycles,
        cfg.vcs_per_port,
        cfg.vc_depth,
        cfg.link_width_bits,
        cfg.max_hops_per_cycle,
        sys.dram_latency,
        sys.dram_line_cycles,
        r = cfg.radix,
    );
    let rows: Vec<Row> = WorkloadKind::ALL
        .iter()
        .map(|wl| {
            let p = wl.profile();
            let numbers = [p.ilp, f64::from(p.mlp), p.i_mpki, p.d_mpki, p.llc_hit_ratio];
            let mut cells = all(&numbers, f2);
            cells.push((if wl.is_batch() { "yes" } else { "" }).to_string());
            (wl.name().to_string(), cells)
        })
        .collect();
    let columns = ["ILP", "MLP", "I-MPKI", "D-MPKI", "LLC hit", "batch"];
    table("Table I — workloads", &columns, &rows, "");
}

fn fig8() {
    let cfg = NocConfig::paper();
    let rows: Vec<Row> = NocOrganization::ALL
        .iter()
        .map(|&org| {
            let b = NocAreaBreakdown::compute(org, &cfg);
            let areas = [b.links_mm2, b.buffers_mm2, b.crossbar_mm2, b.total_mm2()];
            (org.name().to_string(), all(&areas, f2))
        })
        .collect();
    let columns = ["Links", "Buffers", "Crossbar", "Total"];
    let note = "paper: Mesh 3.5 mm², SMART 4.5 mm² (+31%), Mesh+PRA 4.9 mm² (+40%)";
    table("Figure 8 — NOC area breakdown (mm²)", &columns, &rows, note);
}

/// Announced single-flit latency from node 0 to `dest` at zero load.
fn zero_load(org: Organization, dest: u16) -> u64 {
    let mut net = bench::build_network(org, NocConfig::paper());
    let (src, dest) = (NodeId::new(0), NodeId::new(dest));
    let p = Packet::new(PacketId(1), src, dest, MessageClass::Request, 1);
    net.announce(&p, 4);
    for _ in 0..4 {
        net.step();
    }
    let now = net.now();
    net.inject(p.at(now));
    let mut d = Vec::new();
    while net.in_flight() > 0 && net.now() < 2_000 {
        net.step();
        d.extend(net.drain_delivered());
    }
    d.first()
        .map_or(0, |d| d.delivered.saturating_sub(d.packet.created))
}

fn frfc_zero_load() {
    let rows: Vec<Row> = [(2u16, 2), (4, 4), (7, 7), (27, 6), (63, 14)]
        .iter()
        .map(|&(dest, hops)| {
            let cells = [MeshPra, Frfc].map(|o| zero_load(o, dest).to_string());
            (format!("{hops} hops"), cells.to_vec())
        })
        .collect();
    let title = "PRA vs flit-reservation flow control — zero-load announced latency (cycles)";
    table(title, &names(&[MeshPra, Frfc]), &rows, "");
}

fn paper_views(g: &Grid) -> Option<()> {
    let all = &g.sweep.spec.workloads;
    let unit = |_| 1.0;
    g.normalized(
        "Figure 2 — SMART and Ideal vs Mesh",
        "paper: SMART ≈ mesh; ideal ≈ +28% average on these workloads",
        &[WorkloadKind::MediaStreaming, WorkloadKind::WebSearch],
        &[Mesh, Smart, Ideal],
        unit,
    )?;
    g.normalized(
        "Figure 6 — system performance (normalized to Mesh)",
        "paper: Mesh+PRA +7–29% per workload, gmean +14%; −4% vs Ideal",
        all,
        &Organization::ALL,
        unit,
    )?;
    let lags = ["lag0", "lag1", "lag2", "lag3", "lag4plus"];
    g.pra_table(
        "Figure 7 — control-packet lag at drop time",
        &["Lag0", "Lag1", "Lag2", "Lag3", "Lag4+"],
        "paper: Lag0 53–67% (avg 61%), Lag1 15–20%, Lag2 17–27%, >2 below 2%",
        |t| {
            let dropped = lags.iter().map(|l| t(l)).sum::<f64>().max(1.0);
            let share = |l: &&str| format!("{:.1}%", t(l) / dropped * 100.0);
            lags.iter().map(share).collect()
        },
    )?;
    g.pra_table(
        "Section V.B — why is PRA effective?",
        &["ctrl/data", "prealloc-hops", "blocked-frac", "wasted-frac"],
        "paper: 1.60–1.89 control packets per data packet;\n       \
         ≈0.01% of end-to-end latency blocked by reservations",
        |t| {
            let data = t("delivered").max(1.0);
            let blocked = t("blocked_by_reservation_cycles") / t("total_latency").max(1.0);
            let wasted = t("wasted_reservations") / t("reserved_moves").max(1.0);
            vec![
                f2((t("injected_llc") + t("injected_lsd")) / data),
                f2(t("hops_preallocated") / data),
                format!("{:.4}%", blocked * 100.0),
                format!("{:.2}%", wasted * 100.0),
            ]
        },
    )?;
    let cfg = NocConfig::paper();
    // Density is IPC per chip area; Ideal is booked at mesh area, as in
    // the paper.
    let density = |org| {
        let org = match org {
            Smart => NocOrganization::Smart,
            MeshPra => NocOrganization::MeshPra,
            _ => NocOrganization::Mesh,
        };
        performance_density(1.0, NocAreaBreakdown::compute(org, &cfg).total_mm2())
    };
    g.normalized(
        "Figure 9 — performance density (normalized to Mesh)",
        "paper: Mesh+PRA +14% vs Mesh, +12% vs SMART, −5% vs Ideal",
        all,
        &Organization::ALL,
        density,
    )?;
    sec5e(g)?;
    g.normalized(
        "PRA vs flit-reservation flow control — system performance (normalized to Mesh)",
        "FRFC's whole-route, per-packet slot windows serialize competing multi-flit\n\
         responses, so its system-level gain nets out near zero or below: the\n\
         quantitative form of the paper's Section VI argument.",
        all,
        &[Mesh, MeshPra, Frfc],
        unit,
    )
}

fn sec5e(g: &Grid) -> Option<()> {
    let noc = SystemParams::paper().noc;
    let mut rows = Vec::new();
    for org in [Mesh, Smart, MeshPra] {
        let t = g.totals(org, WorkloadKind::WebSearch)?;
        let activity = NetStats {
            cycles: t("cycles") as u64,
            link_traversals: t("link_traversals") as u64,
            local_grants: t("local_grants") as u64,
            reserved_moves: t("reserved_moves") as u64,
            ..NetStats::default()
        };
        if activity.cycles == 0 {
            return None;
        }
        let p = NocPower::from_activity(&noc, &activity, 2.0);
        let watts = [p.links_w, p.buffers_w, p.crossbar_w, p.leakage_w];
        rows.push((
            org.name().to_string(),
            all(&[&watts[..], &[p.total_w()]].concat(), f3),
        ));
    }
    let chip = ChipModel::paper();
    let note = format!(
        "cores: {:.1} W, LLC: {:.1} W — paper: NOC below 2 W, cores above 60 W",
        chip.cores_power_w(),
        chip.llc_power_w()
    );
    let title = "Section V.E — power analysis (Web Search)";
    table(
        title,
        &["links W", "buffers W", "xbar W", "leakage W", "total W"],
        &rows,
        &note,
    );
    Some(())
}

/// The ablation, max-lag and load views of a workload's system variants,
/// each rendered when the grid has more than one variant of its family.
/// `Err` names a selected view whose rows are missing.
fn variant_views(g: &Grid, wl: WorkloadKind) -> Result<(), String> {
    let missing = |view: &str| format!("{} lacks rows for the {view} view", g.sweep.spec.name);
    let samples = g.sweep.spec.samples;
    let pra = |ci: &mut Ci, v: &SystemSpec| Some(ci.mean(g.sweep.ipc(MeshPra, wl, &v.label)?));
    let baselines = |ci: &mut Ci| {
        Some((
            ci.mean(g.baseline(Mesh, wl)?),
            ci.mean(g.baseline(Ideal, wl)?),
        ))
    };
    let windows = g.sweep.family(|s, p| {
        p.llc_window = s.llc_window;
        p.lsd = s.lsd;
        p.announce_requests = s.announce_requests;
        p.announce_fills = s.announce_fills;
    });
    if windows.len() > 1 {
        let view = || {
            let mut ci = Ci::new();
            let (mesh, ideal) = baselines(&mut ci)?;
            let yn = |b: bool| (if b { "yes" } else { "no" }).to_string();
            let anchor = |label: &str, p: f64| {
                let cells = ["", "", "", "", &f2(p), &vs(p, mesh)].map(str::to_string);
                (label.to_string(), cells.to_vec())
            };
            let mut rows = vec![anchor("Mesh baseline", mesh)];
            for v in windows {
                let p = pra(&mut ci, v)?;
                let switches = [v.llc_window, v.lsd, v.announce_requests, v.announce_fills];
                let mut cells: Vec<String> = switches.map(yn).to_vec();
                cells.extend([f2(p), vs(p, mesh)]);
                rows.push((v.label.clone(), cells));
            }
            rows.push(anchor("Ideal", ideal));
            let title = format!("Ablation — Mesh+PRA opportunity windows ({})", wl.name());
            let columns = ["LLC", "LSD", "requests", "fills", "perf", "vs mesh"];
            table(&title, &columns, &rows, &ci.note(samples));
            Some(())
        };
        view().ok_or_else(|| missing("ablation"))?;
    }
    let mut lags = g.sweep.family(|s, p| p.max_lag = s.max_lag);
    if lags.len() > 1 {
        lags.sort_by_key(|v| v.max_lag);
        let view = || {
            let mut ci = Ci::new();
            let (mesh, ideal) = baselines(&mut ci)?;
            let mut rows = Vec::new();
            for v in lags {
                let p = pra(&mut ci, v)?;
                let hops = 1 + 2 * u32::from(v.max_lag).saturating_sub(1);
                let cells = vec![f2(p), vs(p, mesh), hops.to_string()];
                rows.push((format!("max_lag {}", v.max_lag), cells));
            }
            let note = format!(
                "mesh {mesh:.2}, ideal {ideal:.2} ({}); the paper's lag 4 covers 7 hops,\n\
                 beyond the 8x8 mesh's 5.3-hop average.\n{}",
                vs(ideal, mesh),
                ci.note(samples)
            );
            let title = format!("Max-lag sweep ({})", wl.name());
            table(&title, &["perf", "vs mesh", "hops covered"], &rows, &note);
            Some(())
        };
        view().ok_or_else(|| missing("max-lag"))?;
    }
    let mut loads = g.sweep.family(|s, p| p.miss_scale = s.miss_scale);
    if loads.len() > 1 {
        loads.sort_by(|a, b| a.miss_scale.total_cmp(&b.miss_scale));
        let view = || {
            let mut ci = Ci::new();
            let mut rows = Vec::new();
            for v in loads {
                let mut ipc = |o| Some(ci.mean(g.sweep.ipc(o, wl, &v.label)?));
                let (m, p, i) = (ipc(Mesh)?, ipc(MeshPra)?, ipc(Ideal)?);
                let share = format!("{:.0}%", (p - m) / (i - m) * 100.0);
                let cells = vec![f2(m), f2(p), vs(p, m), f2(i), vs(i, m), share];
                rows.push((format!("misses x{:.1}", v.miss_scale), cells));
            }
            let title = format!("Load sweep — miss-rate scaling ({})", wl.name());
            let columns = [
                "Mesh",
                "Mesh+PRA",
                "vs mesh",
                "Ideal",
                "vs mesh",
                "PRA share",
            ];
            table(&title, &columns, &rows, &ci.note(samples));
            Some(())
        };
        view().ok_or_else(|| missing("load"))?;
    }
    Ok(())
}

/// Mean latency per organisation at each value of a synthetic axis,
/// then the `extra` column.
fn latency_table(
    sweep: &Sweep,
    (title, axis, note): (&str, &str, &str),
    values: &[u8],
    extra: Option<(&str, &dyn Fn(u8) -> String)>,
) {
    let spec = &sweep.spec;
    let latency = |org: &Organization, value: &str| {
        sweep
            .summary(&[("org", org.key()), (axis, value)], "avg_latency")
            .map_or("failed".to_string(), |l| format!("{:.1}", l.mean))
    };
    let rows: Vec<Row> = values
        .iter()
        .map(|&v| {
            let value = v.to_string();
            let mut cells: Vec<String> = spec.orgs.iter().map(|o| latency(o, &value)).collect();
            cells.extend(extra.map(|(_, f)| f(v)));
            (format!("{axis} {value}"), cells)
        })
        .collect();
    let mut columns = names(&spec.orgs);
    columns.extend(extra.map(|(name, _)| name));
    let title = format!("{title} ({}, {} pkt/node/cycle)", spec.name, spec.rates[0]);
    table(&title, &columns, &rows, note);
}

fn hpc_sweep(sweep: &Sweep) {
    let wire = WireModel::paper();
    let note = format!(
        "wire reach at 2 GHz: {:.1} mm  (server tile ≈ 1.8 mm → hpc 2)\n\
         wire reach at 1 GHz: {:.1} mm  (SoC tile ≈ 1.0 mm → hpc 8+)\n\
         At hpc 1 SMART degenerates to a slower mesh (setup stage, no bypass); the\n\
         gap SMART closes grows with the wire budget, which is why the paper needs\n\
         PRA at server-class hpc 2.",
        wire.reach_mm_per_cycle(2.0),
        wire.reach_mm_per_cycle(1.0)
    );
    // Zero-load corner-to-corner latency (mesh/smart/ideal) per ceiling.
    let zero_load = |hpc: u8| {
        let Ok(cfg) = NocConfigBuilder::new().max_hops_per_cycle(hpc).build() else {
            return "-".to_string();
        };
        let (s, d) = (NodeId::new(0), NodeId::new(63));
        let cycles = [mesh_latency, smart_latency, ideal_latency].map(|f| f(&cfg, s, d, 1));
        format!("{}/{}/{}", cycles[0], cycles[1], cycles[2])
    };
    latency_table(
        sweep,
        ("Hops-per-cycle sweep, mean latency", "hpc", &note),
        &sweep.spec.hpcs,
        Some(("0-load 0→63", &zero_load)),
    );
}

/// Renders the views `sweep`'s axes select; `all` holds every loaded
/// sweep, the peers a workload grid may take baselines from.
fn render(sweep: &Sweep, all: &[Sweep]) -> Result<(), String> {
    let spec = &sweep.spec;
    if spec.workloads.is_empty() {
        if spec.hpcs.len() > 1 {
            hpc_sweep(sweep);
        }
        if spec.vc_depths.len() > 1 {
            let title = (
                "VC-depth sweep, mean latency",
                "vc_depth",
                "Synthetic traffic announces nothing, so Mesh+PRA runs on LSD alone.",
            );
            latency_table(sweep, title, &spec.vc_depths, None);
        }
        return Ok(());
    }
    let g = Grid::new(sweep, all)?;
    let four_orgs = Organization::ALL.iter().all(|o| spec.orgs.contains(o));
    if four_orgs && paper_views(&g).is_none() {
        return Err(format!("{} lacks rows for a paper view", spec.name));
    }
    for &wl in &spec.workloads {
        variant_views(&g, wl)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) || args.iter().any(|a| a.starts_with('-')) {
        eprintln!("usage: figures [SPEC CSV]...  (default: the committed figure specs' goldens)");
        return ExitCode::from(2);
    }
    let pairs: Vec<(String, String)> = if args.is_empty() {
        FIGURE_SPECS
            .iter()
            .map(|n| (format!("specs/{n}.json"), format!("specs/{n}.golden.csv")))
            .collect()
    } else {
        args.chunks(2)
            .map(|p| (p[0].clone(), p[1].clone()))
            .collect()
    };
    let sweeps: Result<Vec<Sweep>, String> = pairs
        .iter()
        .map(|(spec, csv)| Sweep::load(spec, csv))
        .collect();
    let result = sweeps.and_then(|sweeps| {
        table1();
        fig8();
        frfc_zero_load();
        sweeps.iter().try_for_each(|s| render(s, &sweeps))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
