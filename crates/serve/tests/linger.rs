//! The coalesce window is a cap on waiting for a request that is already
//! arriving, not a sleep every request pays: with nobody else sending, a
//! lone client's round trip must not contain it.

mod common;

use mcond_serve::{spawn, Client, ServeConfig};
use std::time::{Duration, Instant};

#[test]
fn a_lone_request_does_not_wait_out_the_coalesce_window() {
    let window = Duration::from_secs(2);
    let data = common::dataset();
    let slot = common::toy_slot();
    let batch = data.batch(&[4, 5], true);
    let expected = slot.load().server().try_serve(&batch).expect("fixture batch is valid");
    let handle = spawn(slot, ServeConfig { coalesce_window: window, ..ServeConfig::default() })
        .expect("spawn front end");
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).expect("connect");
    for round in 0..3 {
        let sent = Instant::now();
        let (_, logits) = client.post_batch(&batch).expect("200 for a valid batch");
        let took = sent.elapsed();
        assert!(logits.bit_eq(&expected), "round {round}: logits drifted from try_serve");
        assert!(
            took < window / 2,
            "round {round}: a lone request took {took:?} against a {window:?} window"
        );
    }
    handle.shutdown();
}
