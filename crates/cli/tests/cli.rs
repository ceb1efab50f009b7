//! The `gbabs` binary's exit codes and error lines on malformed input.

use std::process::Command;

#[test]
fn a_label_only_csv_exits_1_naming_the_missing_features() {
    let dir = std::env::temp_dir().join(format!("gbabs_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temp dir");
    let csv = dir.join("labels_only.csv");
    std::fs::write(&csv, "label\na\nb\n").expect("the input CSV");
    for command in ["inspect", "sample"] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_gbabs"));
        cmd.arg(command).arg(&csv);
        if command == "sample" {
            cmd.arg("-o").arg(dir.join("out.csv"));
        }
        let out = cmd.output().expect("gbabs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("no feature column beside the label column"),
            "{command}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("the temp dir removed");
}
