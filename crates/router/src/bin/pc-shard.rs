//! # pc-shard — one replica node of the shard fabric
//!
//! Runs a single `pc-serve` instance exposing the cluster's standard
//! target layout — target 0 = `"dyn"`, a dynamic priority search tree
//! (2-sided queries + inserts/deletes) — so every replica of every shard
//! agrees on wire target ids. The router (`pc-router`) fans queries and
//! updates out to these nodes over the ordinary v2 protocol.
//!
//! Two storage modes:
//!
//! * default: in-memory page store, optionally preloaded with `--points N`
//!   seeded uniform points (every replica of a group must be started with
//!   identical `--points`/`--seed` so the group holds identical data);
//! * `--data PATH`: file-backed store with a write-ahead log. A fresh path
//!   builds the preload; an existing path **recovers**: pages are replayed
//!   to the last committed batch and the structure is reopened from the
//!   descriptor the server embeds in every group commit — acknowledged
//!   updates survive a kill, which is what the node-kill chaos suite
//!   leans on.
//!
//! Prints `pc-shard listening on ADDR` once serving; exits when a client
//! sends the ADMIN `Shutdown` op (the router's fabric drain does).

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use pc_pagestore::{PageStore, Point, WalConfig};
use pc_pst::DynamicPst;
use pc_serve::{
    decode_commit_meta, DynamicPstTarget, Registry, Server, ServerConfig, Service,
};
use pc_workloads::{gen_points, PointDist};

const USAGE: &str = "usage: pc-shard [--addr HOST:PORT] [--page-size N] [--data PATH] \
                     [--points N] [--seed S] [--queue-depth N] [--workers N]";

#[derive(Debug, Clone)]
struct Args {
    addr: String,
    page_size: usize,
    data: Option<String>,
    n_points: usize,
    seed: u64,
    queue_depth: usize,
    workers: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: "127.0.0.1:0".to_string(),
            page_size: 512,
            data: None,
            n_points: 0,
            seed: 0x5AA9_D001,
            queue_depth: 64,
            workers: 0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--page-size" => {
                args.page_size =
                    val("--page-size")?.parse().map_err(|e| format!("bad --page-size: {e}"))?;
            }
            "--data" => args.data = Some(val("--data")?),
            "--points" => {
                args.n_points =
                    val("--points")?.parse().map_err(|e| format!("bad --points: {e}"))?;
            }
            "--seed" => {
                args.seed = val("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--queue-depth" => {
                args.queue_depth = val("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("bad --queue-depth: {e}"))?;
            }
            "--workers" => {
                args.workers =
                    val("--workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn preload(args: &Args) -> Vec<Point> {
    gen_points(args.n_points, PointDist::Uniform, args.seed)
        .iter()
        .map(|&(x, y, id)| Point { x, y, id })
        .collect()
}

/// Builds (fresh store) or recovers (existing `--data` file) the node's
/// store and its target registry.
fn open_service(args: &Args) -> Result<Service, String> {
    let (store, recovered_meta) = match &args.data {
        None => (PageStore::in_memory(args.page_size), None),
        Some(path) => {
            let existed = std::path::Path::new(path).exists();
            let (store, report) =
                PageStore::file_durable(std::path::Path::new(path), args.page_size, WalConfig::default())
                    .map_err(|e| format!("open {path}: {e}"))?;
            let meta = if existed { report.last_commit_meta.clone() } else { None };
            eprintln!(
                "pc-shard: {} {path}: {} replayed records, {} commits{}",
                if existed { "recovered" } else { "created" },
                report.replayed_records(),
                report.commits,
                if report.torn_tail { ", torn WAL tail discarded" } else { "" },
            );
            (store, meta)
        }
    };
    let store = Arc::new(store);
    // An existing data file with any committed descriptor reopens the
    // structure exactly as of the last acknowledged batch; everything else
    // builds from the (possibly empty) preload.
    let target = match recovered_meta.as_deref().and_then(decode_commit_meta) {
        Some((_seq, descriptors)) if matches!(descriptors.first(), Some(Some(_))) => {
            let desc = descriptors[0].as_ref().expect("matched Some");
            let pst =
                DynamicPst::open(&store, desc).map_err(|e| format!("reopen structure: {e}"))?;
            DynamicPstTarget::new(pst)
        }
        _ => {
            let pst = DynamicPst::build(&store, &preload(args))
                .map_err(|e| format!("build structure: {e:?}"))?;
            DynamicPstTarget::new(pst)
        }
    };
    let mut registry = Registry::new();
    registry.register("dyn", Box::new(target));
    Ok(Service { store, registry })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let service = open_service(&args)?;
    let mut cfg = ServerConfig {
        addr: args.addr.clone(),
        queue_depth: args.queue_depth,
        update_queue_depth: args.queue_depth,
        ..ServerConfig::default()
    };
    if args.workers > 0 {
        cfg.workers = args.workers;
    }
    let handle = Server::spawn(service, cfg).map_err(|e| format!("spawn server: {e}"))?;
    println!("pc-shard listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    // Serves until a client sends the ADMIN shutdown op (join() *initiates*
    // drain, so wait for the wire-side flag first), then drains.
    while !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.join();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
