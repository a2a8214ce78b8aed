//! # pc-router — the scatter-gather front-end of the shard fabric
//!
//! Connects to replica groups of `pc-shard` nodes, partitions the keyspace
//! at the given split points, and serves the unchanged wire protocol:
//! clients talk to the router exactly as they would to a single node, and
//! the router scatters reads across the shards each query overlaps, merges
//! canonically, routes updates to the owning shard's whole replica group,
//! fails reads over across replicas, and replays missed updates into
//! recovering replicas (see `pc_serve::router`).
//!
//! Topology flags: one `--shard` per replica group (comma-separated
//! replica addresses), and `--splits` with exactly `groups - 1` strictly
//! increasing keys:
//!
//! ```text
//! pc-shard --addr 127.0.0.1:7001 &   pc-shard --addr 127.0.0.1:7002 &
//! pc-shard --addr 127.0.0.1:7003 &   pc-shard --addr 127.0.0.1:7004 &
//! pc-router --addr 127.0.0.1:7000 \
//!     --shard 127.0.0.1:7001,127.0.0.1:7002 \
//!     --shard 127.0.0.1:7003,127.0.0.1:7004 \
//!     --splits 500000
//! ```
//!
//! Prints `pc-router listening on ADDR` once serving. The ADMIN `Shutdown`
//! op drains the router **and** fans shutdown out to every shard replica;
//! `Stats`/`Metrics` expose the per-shard `pc_shard_*` families.

use std::io::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pc_serve::{Router, RouterConfig, RouterFrontend};

const USAGE: &str = "usage: pc-router --shard ADDR[,ADDR...] [--shard ...] [--splits K1,K2,...] \
                     [--addr HOST:PORT] [--health-ms N] [--attempts N] [--seed S]";

#[derive(Debug, Clone)]
struct Args {
    addr: String,
    groups: Vec<Vec<SocketAddr>>,
    splits: Vec<i64>,
    health_ms: u64,
    attempts: u32,
    seed: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: "127.0.0.1:0".to_string(),
            groups: Vec::new(),
            splits: Vec::new(),
            health_ms: 50,
            attempts: 4,
            seed: 0x5AFE_C10C,
        }
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?
        .next()
        .ok_or(format!("address {addr:?} resolves to nothing"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--shard" => {
                let group = val("--shard")?
                    .split(',')
                    .map(resolve)
                    .collect::<Result<Vec<_>, _>>()?;
                args.groups.push(group);
            }
            "--splits" => {
                args.splits = val("--splits")?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad split {s:?}: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--health-ms" => {
                args.health_ms =
                    val("--health-ms")?.parse().map_err(|e| format!("bad --health-ms: {e}"))?;
            }
            "--attempts" => {
                args.attempts =
                    val("--attempts")?.parse().map_err(|e| format!("bad --attempts: {e}"))?;
            }
            "--seed" => {
                args.seed = val("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.groups.is_empty() {
        return Err(format!("at least one --shard group is required\n{USAGE}"));
    }
    if args.splits.len() + 1 != args.groups.len() {
        return Err(format!(
            "{} shard groups need exactly {} split point(s), got {}",
            args.groups.len(),
            args.groups.len() - 1,
            args.splits.len()
        ));
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = RouterConfig {
        health_interval: Duration::from_millis(args.health_ms.max(1)),
        retry: pc_serve::RetryPolicy { attempts: args.attempts },
        seed: args.seed,
    };
    let router = Arc::new(
        Router::connect(&args.groups, args.splits.clone(), cfg)
            .map_err(|e| format!("connect fabric: {e}"))?,
    );
    let frontend = RouterFrontend::spawn(Arc::clone(&router), &args.addr)
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    println!("pc-router listening on {}", frontend.addr());
    std::io::stdout().flush().ok();
    while !router.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    frontend.join();
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
