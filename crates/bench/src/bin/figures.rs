//! CLI entry point regenerating the paper's figures.
//!
//! ```text
//! figures <id> [--seconds N] [--records N] [--warehouses N]
//!              [--workers N] [--feeders N] [--disk-mbps N]
//!              [--out DIR] [--seed N]
//!
//! ids: fig2a fig2b fig2c fig3a fig3b fig3c fig4a fig4b fig5 fig6 fig7a
//!      fig7b fig8 all
//! ```
//!
//! Each figure writes CSVs under the output directory (default
//! `results/`) and prints paper-shaped tables. Run with `--release`.

use calc_bench::figures::{self, FigureOpts};

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig2a|fig2b|fig2c|fig3a|fig3b|fig3c|fig4a|fig4b|fig5|fig6|fig7a|fig7b|fig8|all>\n\
         \t[--seconds N] [--records N] [--warehouses N] [--workers N]\n\
         \t[--feeders N] [--disk-mbps N] [--out DIR] [--seed N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(figure) = args.next() else { usage() };
    let mut opts = FigureOpts::default();
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--records" => opts.records = value().parse().unwrap_or_else(|_| usage()),
            "--warehouses" => opts.warehouses = value().parse().unwrap_or_else(|_| usage()),
            // Every figure submits, so it needs a pool.
            "--workers" => {
                opts.workers = (value().parse::<std::num::NonZeroUsize>())
                    .map_or_else(|_| usage(), usize::from)
            }
            "--feeders" => opts.feeders = value().parse().unwrap_or_else(|_| usage()),
            "--disk-mbps" => opts.disk_mbps = value().parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out_dir = value().into(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    #[cfg(debug_assertions)]
    eprintln!("WARNING: debug build — run with --release for meaningful numbers");

    eprintln!(
        "figures {figure}: {}s runs, {} records, {} warehouses, {} workers, disk {} MB/s",
        opts.seconds, opts.records, opts.warehouses, opts.workers, opts.disk_mbps
    );
    match figure.as_str() {
        "fig2a" => {
            figures::fig2a(&opts);
        }
        "fig2b" => {
            figures::fig2b(&opts);
        }
        "fig2c" => figures::fig2c(&opts),
        "fig3a" => {
            figures::fig3a(&opts);
        }
        "fig3b" => {
            figures::fig3b(&opts);
        }
        "fig3c" => figures::fig3c(&opts),
        "fig4a" => {
            figures::fig4a(&opts);
        }
        "fig4b" => figures::fig4b(&opts),
        "fig5" => figures::fig5(&opts),
        "fig6" => {
            figures::fig6(&opts);
        }
        "fig7a" => {
            figures::fig7a(&opts);
        }
        "fig7b" => figures::fig7b(&opts),
        "fig8" => figures::fig8(&opts),
        "all" => figures::all(&opts),
        _ => usage(),
    }
}
