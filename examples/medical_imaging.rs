//! Domain scenario from the paper's motivation (§I: "DLSR methods have
//! also shown promise in domains such as medical imaging, surveillance,
//! and microscopy"): super-resolve low-resolution single-channel
//! microscopy-like scans with EDSR and quantify the gain over bicubic
//! interpolation at ×2 and ×4.
//!
//! Run with: `cargo run --release --example medical_imaging`

use dlsr::prelude::*;

/// Microscopy-like content: fine texture and sharp cell-boundary edges.
fn scan_spec(extent: usize) -> SyntheticImageSpec {
    SyntheticImageSpec {
        height: extent,
        width: extent,
        channels: 1,
        octaves: 5,
        shapes: 12,
        texture: 0.05,
    }
}

fn train_and_eval(scale: usize) -> (f32, f32) {
    let cfg = EdsrConfig {
        n_resblocks: 3,
        n_feats: 12,
        scale,
        res_scale: 0.1,
        colors: 1,
        // DIV2K RGB means are meaningless for single-channel scans
        mean_shift: false,
    };
    let mut model = Edsr::new(cfg, 99);
    // residual learning over bicubic (VDSR-style): start at the bicubic
    // baseline and learn only the correction
    model.zero_output_conv();
    let mut opt = Adam::new(1e-3);
    let dataset = Div2kSynthetic::new(scan_spec(64), 6, scale, 2024);
    let mut loader = DataLoader::new(dataset, 12, 6, ShardSpec::single());
    for step in 0..250u64 {
        let (lr_batch, hr_batch) = loader.batch(0, step);
        let bicubic = dlsr::tensor::resize::bicubic_upsample(&lr_batch, scale).expect("bicubic");
        let target = dlsr::tensor::elementwise::sub(&hr_batch, &bicubic).expect("target");
        let pred = model.forward(&lr_batch).expect("forward");
        let (_, grad) = l1_loss(&pred, &target).expect("loss");
        model.backward(&grad).expect("backward");
        opt.step(&mut model);
    }
    // held-out scan
    let mut eval = Div2kSynthetic::new(scan_spec(64), 1, scale, 777);
    let (hr, lr) = eval.image(0);
    let (hr, lr) = (hr.clone(), lr.clone());
    let bicubic = dlsr::tensor::resize::bicubic_upsample(&lr, scale).expect("bicubic");
    let residual = model.predict(&lr).expect("super-resolve");
    let sr = dlsr::tensor::elementwise::add(&bicubic, &residual).expect("add");
    (
        psnr(&sr, &hr, 1.0).expect("psnr"),
        psnr(&bicubic, &hr, 1.0).expect("psnr"),
    )
}

fn main() {
    println!("== EDSR for microscopy-like single-channel scans ==\n");
    for scale in [2usize, 4] {
        let (edsr_psnr, bicubic_psnr) = train_and_eval(scale);
        println!("x{scale} super-resolution of a held-out scan:");
        println!("  bicubic : {bicubic_psnr:.2} dB");
        println!(
            "  EDSR    : {edsr_psnr:.2} dB  ({:+.2} dB)\n",
            edsr_psnr - bicubic_psnr
        );
    }
    println!("After 250 CPU training steps the residual EDSR reaches parity with");
    println!("the bicubic baseline. Pushing past it takes the production-scale");
    println!("training the paper is about: ~10 img/s on a V100 means hundreds of");
    println!("GPU-hours per model — exactly why DLSR training needs HPC clusters");
    println!("(run `dlsr figures --only fig12` / `fig13` to see that story).");
}
