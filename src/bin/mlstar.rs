//! `mlstar` — command-line interface to the MLlib\* reproduction.
//!
//! ```text
//! mlstar generate --preset kdd12 --out data.libsvm [--scale 16]
//! mlstar inspect  --data data.libsvm
//! mlstar train    --data data.libsvm --system star [--reg-l2 0.1]
//!                 [--eta 0.05] [--rounds 20] [--executors 8] [--seed 42]
//!                 [--model-out model.bin]
//! mlstar predict  --data data.libsvm --model model.bin
//! mlstar path     --data data.libsvm [--loss logistic] [--folds 5]
//!                 [--lambdas 20] [--eps 0.01] [--l1-ratio 1.0]
//!                 [--executors 8] [--seed 42] [--model-out model.bin]
//! mlstar help
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mllib_star::collectives::wire;
use mllib_star::core::{
    cross_validate_path, AngelConfig, CvConfig, PsSystemConfig, System, TrainCheckpoint,
    TrainConfig,
};
use mllib_star::data::{catalog, libsvm, SparseDataset};
use mllib_star::glm::{
    fit_path_on_grid, model_accuracy, model_auc, CdConfig, GlmModel, LearningRate, Loss,
    PathConfig, Regularizer,
};
use mllib_star::linalg::CscMatrix;
use mllib_star::net::{train_net, NetConfig, TransportKind};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `mlstar help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--key value` options plus the leading subcommand.
struct Options {
    command: String,
    pairs: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let command = args.first().cloned().ok_or("missing subcommand")?;
        let mut pairs = Vec::new();
        let mut i = 1;
        while i < args.len() {
            let key = &args[i];
            if !key.starts_with("--") {
                return Err(format!("expected --option, got {key:?}"));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("missing value for {key}"))?;
            pairs.push((key[2..].to_owned(), value.clone()));
            i += 2;
        }
        Ok(Options { command, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        print_help();
        return Ok(());
    }
    let opts = Options::parse(args)?;
    match opts.command.as_str() {
        "generate" => cmd_generate(&opts),
        "inspect" => cmd_inspect(&opts),
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "path" => cmd_path(&opts),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn print_help() {
    println!("mlstar — train GLMs with the MLlib* systems on a simulated cluster");
    println!();
    println!("subcommands:");
    println!("  generate --preset <avazu|url|kddb|kdd12|wx> --out <file> [--scale N]");
    println!("  inspect  --data <file.libsvm>");
    println!(
        "  train    --data <file.libsvm> --system <mllib|ma|star|petuum|petuum_star|angel|lbfgs>"
    );
    println!("           [--reg-l2 λ] [--eta η] [--rounds N] [--executors K]");
    println!("           [--batch-frac F] [--seed S] [--model-out <file.bin>]");
    println!("           [--checkpoint-every N --checkpoint-dir <dir>]");
    println!("           [--checkpoint-keep N] [--resume <file.ckpt>]");
    println!("           [--backend <sim|net>] [--net-transport <channel|tcp>]");
    println!("  predict  --data <file.libsvm> --model <file.bin>");
    println!("  path     --data <file.libsvm> [--loss <logistic|squared>] [--folds K]");
    println!("           [--lambdas N] [--eps ε] [--l1-ratio α] [--executors K]");
    println!("           [--seed S] [--model-out <file.bin>]");
    println!();
    println!("path: K-fold cross-validated, warm-started λ path solved by cyclic");
    println!("coordinate descent, scheduled as parallel jobs on the simulated");
    println!("cluster. Picks the λ with the lowest mean held-out loss, refits on");
    println!("the full dataset, and optionally writes the refit model.");
    println!();
    println!("checkpointing: --checkpoint-every N writes a snapshot into");
    println!("--checkpoint-dir every N communication steps; --resume restores one");
    println!("and continues the run bit-identically to never having stopped.");
    println!("--checkpoint-keep N rotates the directory, deleting all but the");
    println!("newest N snapshots of the trained system (default 0 = keep all).");
    println!("The other train options must match the original run exactly.");
    println!();
    println!("backend: --backend sim (default) runs the per-worker ops in process");
    println!("under the simulated clock; --backend net runs them on real worker");
    println!("threads over the command protocol (--net-transport channel|tcp)");
    println!("with bit-identical results plus measured per-round wall-clock.");
}

fn load_dataset(opts: &Options) -> Result<SparseDataset, String> {
    let path = opts.require("data")?;
    libsvm::read_file(path, 0).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_generate(opts: &Options) -> Result<(), String> {
    let preset_name = opts.require("preset")?;
    let out = opts.require("out")?;
    let scale: usize = opts.get_parsed("scale", 1)?;
    let preset =
        catalog::preset(preset_name).ok_or_else(|| format!("unknown preset {preset_name:?}"))?;
    let ds = preset.scaled_down(scale).generate();
    std::fs::write(out, libsvm::write_string(&ds)).map_err(|e| e.to_string())?;
    let stats = ds.stats();
    println!(
        "wrote {out}: {} examples × {} features ({})",
        stats.instances,
        stats.features,
        stats.size_human()
    );
    Ok(())
}

fn cmd_inspect(opts: &Options) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let s = ds.stats();
    println!("instances:        {}", s.instances);
    println!("features:         {}", s.features);
    println!("total nonzeros:   {}", s.total_nnz);
    println!("avg nnz/row:      {:.2}", s.avg_nnz);
    println!("positive labels:  {:.1}%", s.positive_fraction * 100.0);
    println!("in-memory size:   {}", s.size_human());
    println!(
        "shape:            {}",
        if s.underdetermined {
            "underdetermined (d > n)"
        } else {
            "determined (n ≥ d)"
        }
    );
    Ok(())
}

fn cmd_train(opts: &Options) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let system: System = opts.require("system")?.parse()?;
    let lambda: f64 = opts.get_parsed("reg-l2", 0.0)?;
    let eta: f64 = opts.get_parsed("eta", 0.05)?;
    let rounds: u64 = opts.get_parsed("rounds", 20)?;
    let executors: usize = opts.get_parsed("executors", 8)?;
    let batch_frac: f64 = opts.get_parsed("batch-frac", 0.01)?;
    let seed: u64 = opts.get_parsed("seed", 42)?;
    let checkpoint_every: u64 = opts.get_parsed("checkpoint-every", 0)?;
    let checkpoint_keep: u64 = opts.get_parsed("checkpoint-keep", 0)?;
    if executors == 0 {
        return Err("--executors must be positive".into());
    }

    let cluster = ClusterSpec::uniform(executors, NodeSpec::standard(), NetworkSpec::gbps1());
    let cfg = TrainConfig {
        loss: Loss::Hinge,
        reg: Regularizer::l2(lambda),
        lr: LearningRate::Constant(eta),
        batch_frac,
        max_rounds: rounds,
        seed,
        checkpoint_every,
        checkpoint_keep,
        ..TrainConfig::default()
    };
    cfg.validate()?;
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();

    let backend = opts.get("backend").unwrap_or("sim");
    let net_transport = match opts.get("net-transport") {
        None | Some("channel") => TransportKind::Channel,
        Some("tcp") => TransportKind::Tcp,
        Some(other) => return Err(format!("unknown --net-transport {other:?}")),
    };
    match backend {
        "sim" => {}
        "net" => {
            if opts.get("resume").is_some() || checkpoint_every > 0 {
                return Err(
                    "--backend net does not support --resume/--checkpoint-every \
                     (checkpoint on the sim backend; the results are bit-identical)"
                        .into(),
                );
            }
        }
        other => return Err(format!("unknown --backend {other:?}")),
    }

    let out = if backend == "net" {
        println!(
            "training {system} on {} examples × {} features over {executors} real \
             workers: {} spawned threads plus this one ({})…",
            ds.len(),
            ds.num_features(),
            executors.saturating_sub(1),
            match net_transport {
                TransportKind::Channel => "in-process channels",
                TransportKind::Tcp => "loopback TCP",
            }
        );
        let net_cfg = NetConfig {
            transport: net_transport,
            ..NetConfig::default()
        };
        let run = train_net(system, &ds, &cluster, &cfg, &ps, &angel, &net_cfg)
            .map_err(|e| format!("net backend: {e}"))?;
        let compute_s: f64 = run
            .batches
            .iter()
            .flat_map(|b| b.workers.iter())
            .map(|w| w.compute_s)
            .sum();
        let round_s: f64 = run.batches.iter().map(|b| b.wall_s).sum();
        println!(
            "measured: {} dispatch batches in {:.3}s wall ({:.1} batches/s); \
             {:.4}s inside rounds, {:.4}s summed worker compute",
            run.batches.len(),
            run.wall_s,
            run.batches_per_sec(),
            round_s,
            compute_s,
        );
        run.output
    } else if let Some(ckpt_path) = opts.get("resume") {
        let ckpt = TrainCheckpoint::read_file(Path::new(ckpt_path))
            .map_err(|e| format!("reading {ckpt_path}: {e}"))?;
        // Keep checkpointing into the directory the snapshot came from
        // unless the user redirects it.
        let dir = match opts.get("checkpoint-dir") {
            Some(d) => PathBuf::from(d),
            None => Path::new(ckpt_path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .map(Path::to_path_buf)
                .unwrap_or_else(|| PathBuf::from(".")),
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        println!(
            "resuming {} from {ckpt_path} ({} steps done)…",
            ckpt.system(),
            ckpt.rounds_done()
        );
        system
            .resume(&ds, &cluster, &cfg, &ps, &angel, &dir, ckpt)
            .map_err(|e| format!("resuming {ckpt_path}: {e}"))?
    } else if checkpoint_every > 0 {
        let dir = PathBuf::from(opts.require("checkpoint-dir")?);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        println!(
            "training {system} on {} examples × {} features over {executors} simulated \
             executors (checkpoint every {checkpoint_every} steps into {})…",
            ds.len(),
            ds.num_features(),
            dir.display()
        );
        system
            .train_checkpointed(&ds, &cluster, &cfg, &ps, &angel, &dir)
            .map_err(|e| e.to_string())?
    } else {
        println!(
            "training {system} on {} examples × {} features over {executors} simulated executors…",
            ds.len(),
            ds.num_features()
        );
        system.train(&ds, &cluster, &cfg, &ps, &angel)
    };
    println!("\n step | sim time | objective");
    for p in &out.trace.points {
        println!(
            "{:>5} | {:>8.3}s | {:.6}",
            p.step,
            p.time.as_secs_f64(),
            p.objective
        );
    }
    println!(
        "\nfinal objective {:.6} | accuracy {:.2}% | AUC {:.4} | {} updates in {} steps",
        out.trace.final_objective().unwrap_or(f64::NAN),
        model_accuracy(&out.model, ds.rows(), ds.labels()) * 100.0,
        model_auc(&out.model, ds.rows(), ds.labels()),
        out.total_updates,
        out.rounds_run
    );
    if let Some(path) = opts.get("model-out") {
        let frame = wire::encode_dense(out.model.weights());
        std::fs::write(path, &frame).map_err(|e| e.to_string())?;
        println!("wrote model to {path} ({} bytes)", frame.len());
    }
    Ok(())
}

fn cmd_predict(opts: &Options) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let model_path = opts.require("model")?;
    let raw = std::fs::read(model_path).map_err(|e| e.to_string())?;
    let weights = wire::decode_dense(&raw).map_err(|e| format!("decoding {model_path}: {e}"))?;
    if weights.dim() != ds.num_features() {
        return Err(format!(
            "model dimension {} does not match dataset features {}",
            weights.dim(),
            ds.num_features()
        ));
    }
    let model = GlmModel::from_weights(weights);
    println!(
        "accuracy {:.2}%",
        model_accuracy(&model, ds.rows(), ds.labels()) * 100.0
    );
    println!("AUC      {:.4}", model_auc(&model, ds.rows(), ds.labels()));
    for (i, row) in ds.rows().iter().take(5).enumerate() {
        println!(
            "example {i}: margin {:+.4} → {:+.0}",
            model.margin(row),
            model.predict(row)
        );
    }
    Ok(())
}

fn cmd_path(opts: &Options) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let loss = match opts.get("loss").unwrap_or("logistic") {
        "logistic" => Loss::Logistic,
        "squared" => Loss::Squared,
        // Let the solver explain why hinge is refused.
        "hinge" => Loss::Hinge,
        other => return Err(format!("unknown loss {other:?} (logistic|squared)")),
    };
    let folds: usize = opts.get_parsed("folds", 5)?;
    let n_lambdas: usize = opts.get_parsed("lambdas", 20)?;
    let eps: f64 = opts.get_parsed("eps", 1e-2)?;
    let l1_ratio: f64 = opts.get_parsed("l1-ratio", 1.0)?;
    let executors: usize = opts.get_parsed("executors", 8)?;
    let seed: u64 = opts.get_parsed("seed", 42)?;
    if executors == 0 {
        return Err("--executors must be positive".into());
    }
    if !(0.0..=1.0).contains(&l1_ratio) {
        return Err("--l1-ratio must be in [0, 1]".into());
    }
    if n_lambdas == 0 {
        return Err("--lambdas must be positive".into());
    }
    if !(eps > 0.0 && eps <= 1.0) {
        return Err("--eps must be in (0, 1]".into());
    }

    let cluster = ClusterSpec::uniform(executors, NodeSpec::standard(), NetworkSpec::gbps1());
    let cfg = CvConfig {
        loss,
        folds,
        path: PathConfig {
            n_lambdas,
            eps,
            l1_ratio,
            cd: CdConfig::default(),
        },
        seed,
    };
    println!(
        "cross-validating a {n_lambdas}-point λ path ({folds} folds, α={l1_ratio}) on {} \
         examples × {} features over {executors} simulated executors…",
        ds.len(),
        ds.num_features()
    );
    let cv = cross_validate_path(&ds, &cluster, &cfg).map_err(|e| e.to_string())?;

    println!("\n    k |        λ | mean val loss | mean nnz | sweeps");
    for (k, &lambda) in cv.lambdas.iter().enumerate() {
        let mean_nnz: f64 =
            cv.folds.iter().map(|f| f.points[k].nnz as f64).sum::<f64>() / cv.folds.len() as f64;
        let sweeps: usize = cv.folds.iter().map(|f| f.points[k].stats.sweeps).sum();
        println!(
            "{marker} {k:>3} | {lambda:>8.5} | {:>13.6} | {mean_nnz:>8.1} | {sweeps:>6}",
            cv.mean_val_loss[k],
            marker = if k == cv.best_lambda_idx { "→" } else { " " },
        );
    }
    println!(
        "\nλ_max {:.5}; best λ = {:.5} (index {}) at mean held-out loss {:.6}",
        cv.lambda_max, cv.best_lambda, cv.best_lambda_idx, cv.mean_val_loss[cv.best_lambda_idx]
    );
    println!(
        "{} jobs over {} rounds; simulated makespan {:.3}s",
        cv.jobs.len(),
        cv.round_phases.len(),
        cv.makespan_s
    );

    // Refit on the full dataset, warm-starting down the grid to best λ.
    let cols = CscMatrix::from_rows(ds.rows(), ds.num_features());
    let refit = fit_path_on_grid(
        &loss,
        &cols,
        ds.labels(),
        &cv.lambdas[..=cv.best_lambda_idx],
        l1_ratio,
        &cfg.path.cd,
    )
    .map_err(|e| e.to_string())?;
    let best = refit.last().expect("refit path is nonempty");
    let model = GlmModel::from_weights(best.weights.clone());
    println!(
        "\nrefit at λ={:.5}: objective {:.6}, {} nonzero weights, accuracy {:.2}%, AUC {:.4}",
        best.lambda,
        best.objective,
        best.nnz,
        model_accuracy(&model, ds.rows(), ds.labels()) * 100.0,
        model_auc(&model, ds.rows(), ds.labels())
    );
    if let Some(path) = opts.get("model-out") {
        let frame = wire::encode_dense(model.weights());
        std::fs::write(path, &frame).map_err(|e| e.to_string())?;
        println!("wrote model to {path} ({} bytes)", frame.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_options() {
        let o = Options::parse(&args(&["train", "--data", "x.libsvm", "--eta", "0.1"])).unwrap();
        assert_eq!(o.command, "train");
        assert_eq!(o.get("data"), Some("x.libsvm"));
        assert_eq!(o.get_parsed("eta", 0.0).unwrap(), 0.1);
        assert_eq!(o.get_parsed("rounds", 7u64).unwrap(), 7);
        assert!(o.require("missing").is_err());
    }

    #[test]
    fn rejects_malformed_args() {
        assert!(Options::parse(&args(&[])).is_err());
        assert!(Options::parse(&args(&["train", "stray"])).is_err());
        assert!(Options::parse(&args(&["train", "--key"])).is_err());
        let o = Options::parse(&args(&["train", "--eta", "banana"])).unwrap();
        assert!(o.get_parsed("eta", 0.0).is_err());
    }

    #[test]
    fn parses_systems() {
        // Slugs and paper names both work via core's `FromStr`.
        assert_eq!("star".parse::<System>(), Ok(System::MllibStar));
        assert_eq!("MLlib*".parse::<System>(), Ok(System::MllibStar));
        assert_eq!("lbfgs".parse::<System>(), Ok(System::SparkMl));
        assert!("spark".parse::<System>().is_err());
    }

    #[test]
    fn end_to_end_generate_train_predict() {
        let dir = std::env::temp_dir().join("mlstar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.libsvm").to_string_lossy().into_owned();
        let model = dir.join("model.bin").to_string_lossy().into_owned();

        run(&args(&[
            "generate", "--preset", "avazu", "--out", &data, "--scale", "256",
        ]))
        .expect("generate");
        run(&args(&["inspect", "--data", &data])).expect("inspect");
        run(&args(&[
            "train",
            "--data",
            &data,
            "--system",
            "star",
            "--rounds",
            "3",
            "--executors",
            "4",
            "--model-out",
            &model,
        ]))
        .expect("train");
        run(&args(&["predict", "--data", &data, "--model", &model])).expect("predict");
        for bad in [["--reg-l2", "-1"], ["--reg-l2", "nan"], ["--eta", "-1"]] {
            let mut argv = vec!["train", "--data", &data, "--system", "star"];
            argv.extend(bad);
            assert!(run(&args(&argv)).is_err(), "{bad:?}");
        }

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn zero_round_train_succeeds_on_every_system() {
        let dir = std::env::temp_dir().join("mlstar_cli_zero_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.libsvm").to_string_lossy().into_owned();
        let model = dir.join("model.bin").to_string_lossy().into_owned();

        run(&args(&[
            "generate", "--preset", "avazu", "--out", &data, "--scale", "256",
        ]))
        .expect("generate");
        for system in System::ALL {
            let slug = system.to_string();
            run(&args(&[
                "train",
                "--data",
                &data,
                "--system",
                &slug,
                "--rounds",
                "0",
                "--model-out",
                &model,
            ]))
            .unwrap_or_else(|e| panic!("{slug}: {e}"));
            run(&args(&["predict", "--data", &data, "--model", &model])).expect("predict");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_and_resume_via_cli() {
        let dir = std::env::temp_dir().join("mlstar_cli_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.libsvm").to_string_lossy().into_owned();
        let ckpt_dir = dir.join("ckpts").to_string_lossy().into_owned();

        run(&args(&[
            "generate", "--preset", "avazu", "--out", &data, "--scale", "256",
        ]))
        .expect("generate");
        run(&args(&[
            "train",
            "--data",
            &data,
            "--system",
            "star",
            "--rounds",
            "6",
            "--executors",
            "4",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
            &ckpt_dir,
        ]))
        .expect("checkpointed train");

        let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        ckpts.sort();
        let first = ckpts.first().expect("at least one checkpoint on disk");

        run(&args(&[
            "train",
            "--data",
            &data,
            "--system",
            "star",
            "--rounds",
            "6",
            "--executors",
            "4",
            "--checkpoint-every",
            "2",
            "--resume",
            &first.to_string_lossy(),
        ]))
        .expect("resumed train");

        // Resuming under the wrong system is refused, not silently retrained.
        assert!(run(&args(&[
            "train",
            "--data",
            &data,
            "--system",
            "mllib",
            "--rounds",
            "6",
            "--executors",
            "4",
            "--resume",
            &first.to_string_lossy(),
        ]))
        .is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_keep_rotates_via_cli() {
        let dir = std::env::temp_dir().join("mlstar_cli_keep_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.libsvm").to_string_lossy().into_owned();
        let ckpt_dir = dir.join("ckpts");

        run(&args(&[
            "generate", "--preset", "avazu", "--out", &data, "--scale", "256",
        ]))
        .expect("generate");
        run(&args(&[
            "train",
            "--data",
            &data,
            "--system",
            "star",
            "--rounds",
            "6",
            "--executors",
            "4",
            "--checkpoint-every",
            "2",
            "--checkpoint-keep",
            "1",
            "--checkpoint-dir",
            &ckpt_dir.to_string_lossy(),
        ]))
        .expect("rotated train");

        // Cadence 2 over 6 rounds writes rounds 2, 4, 6; keep=1 leaves
        // only the newest on disk.
        let names: Vec<String> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        assert_eq!(names, vec!["mllib-star-round-00006.ckpt".to_string()]);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_cv_end_to_end() {
        let dir = std::env::temp_dir().join("mlstar_cli_path_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tiny.libsvm").to_string_lossy().into_owned();
        let model = dir.join("path_model.bin").to_string_lossy().into_owned();

        run(&args(&[
            "generate", "--preset", "avazu", "--out", &data, "--scale", "256",
        ]))
        .expect("generate");
        run(&args(&[
            "path",
            "--data",
            &data,
            "--folds",
            "3",
            "--lambdas",
            "5",
            "--executors",
            "2",
            "--model-out",
            &model,
        ]))
        .expect("path");
        run(&args(&["predict", "--data", &data, "--model", &model])).expect("predict");

        // Hinge has no curvature bound; the CD solver refuses it loudly.
        assert!(run(&args(&["path", "--data", &data, "--loss", "hinge"])).is_err());
        assert!(run(&args(&["path", "--data", &data, "--loss", "huber"])).is_err());
        assert!(run(&args(&["path", "--data", &data, "--l1-ratio", "1.5"])).is_err());
        assert!(run(&args(&["path", "--data", &data, "--lambdas", "0"])).is_err());
        for eps in ["0", "1.5", "nan"] {
            assert!(run(&args(&["path", "--data", &data, "--eps", eps])).is_err());
        }

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn help_runs() {
        run(&args(&["help"])).unwrap();
        run(&[]).unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["generate", "--preset", "nope", "--out", "/tmp/x"])).is_err());
    }
}
