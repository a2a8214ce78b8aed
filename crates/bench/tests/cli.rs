//! The `experiments` command line: names and nothing else. The 45 s run
//! that holds every number of EXPERIMENTS.md is `scripts/verify.sh`'s diff
//! step; what tier-1 holds here is the exit code of a name that is not a
//! section, and that the document's sections are exactly the binary's.

use std::process::Command;

/// Runs the binary with a name no section has and returns the names it
/// lists on its way out.
fn listed_names() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments")).arg("e99").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "an unknown name must not pass for an empty run");
    assert!(out.stdout.is_empty(), "nothing runs beside an unknown name");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let (complaint, names) = stderr.trim_end().rsplit_once(": ").expect("a list of the names");
    assert!(complaint.contains("unknown experiment e99"), "{stderr}");
    names.split(' ').map(str::to_owned).collect()
}

#[test]
fn an_unknown_name_exits_2_after_listing_the_valid_ones() {
    let names = listed_names();
    assert!(names.len() > 10 && names.iter().all(|name| name.starts_with('e')), "{names:?}");
}

#[test]
fn the_documents_sections_are_exactly_the_names_the_binary_lists() {
    let document = include_str!("../../../EXPERIMENTS.md");
    let headings: Vec<String> = document
        .lines()
        .filter_map(|line| line.strip_prefix("## "))
        .map(|heading| heading.split(' ').next().unwrap().to_lowercase())
        .collect();
    assert_eq!(headings, listed_names(), "regenerate EXPERIMENTS.md from the binary");
    assert!(!document.contains("Moved by PR"), "history is git's and CHANGES.md's");
}
