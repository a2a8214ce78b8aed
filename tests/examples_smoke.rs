//! Smoke tests for the `examples/` entry points: each example's `main` is
//! compiled into this test binary via `#[path]` includes and run end to
//! end at a reduced problem size (`PC_EXAMPLE_N`), so example rot —
//! bit-rotted imports, APIs drifting out from under the docs, broken
//! assertions — is caught by plain `cargo test -q` instead of waiting for
//! a human to run `cargo run --example ...`.

#[path = "../examples/quickstart.rs"]
mod quickstart;

#[path = "../examples/class_hierarchy.rs"]
mod class_hierarchy;

#[path = "../examples/temporal_db.rs"]
mod temporal_db;

#[path = "../examples/storage_tradeoffs.rs"]
mod storage_tradeoffs;

#[path = "../examples/server_quickstart.rs"]
mod server_quickstart;

#[path = "../examples/slowlog_demo.rs"]
mod slowlog_demo;

/// Shrinks every example to a size that runs in well under a second even
/// in debug builds. The returned guard serializes the example runs: every
/// `set_var` and every env read inside an example `main` happens while the
/// lock is held, so the process-global environment is never mutated
/// concurrently with a read.
fn smoke_scale() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    std::env::set_var("PC_EXAMPLE_N", "2000");
    guard
}

#[test]
fn quickstart_core_path_runs() {
    let _serial = smoke_scale();
    quickstart::main().expect("quickstart example must complete");
}

#[test]
fn class_hierarchy_core_path_runs() {
    let _serial = smoke_scale();
    class_hierarchy::main().expect("class_hierarchy example must complete");
}

#[test]
fn temporal_db_core_path_runs() {
    let _serial = smoke_scale();
    temporal_db::main().expect("temporal_db example must complete");
}

#[test]
fn storage_tradeoffs_core_path_runs() {
    let _serial = smoke_scale();
    storage_tradeoffs::main().expect("storage_tradeoffs example must complete");
}

#[test]
fn server_quickstart_core_path_runs() {
    let _serial = smoke_scale();
    server_quickstart::main().expect("server_quickstart example must complete");
}

#[test]
fn slowlog_demo_core_path_runs() {
    let _serial = smoke_scale();
    slowlog_demo::main().expect("slowlog_demo example must complete");
}
