//! Postmortems are read from the devices' event logs: each device's
//! newest events, merged across a group in simulated-time order.

use gpusim::{postmortem, Device, DeviceProps, FaultPlan, Phase, POSTMORTEM_TAIL};
use serde::Value;
use std::sync::Arc;

/// Past [`POSTMORTEM_TAIL`] events a device's postmortem sheds the
/// oldest: it keeps the most recent ones, in log order, and counts the
/// rest.
#[test]
fn postmortem_tail_sheds_oldest() {
    let dev = Device::rtx4090();
    for i in 0..300 {
        dev.charge_ns("k", Phase::Histogram, 1.0 + i as f64);
    }
    let pm = postmortem("test failure", &[dev]);
    assert_eq!(pm.events.len(), POSTMORTEM_TAIL);
    assert_eq!(pm.dropped_events, 300 - POSTMORTEM_TAIL as u64);
    let seqs: Vec<u64> = pm.events.iter().map(|e| e.seq).collect();
    assert_eq!(
        seqs,
        (300 - POSTMORTEM_TAIL as u64..300).collect::<Vec<_>>()
    );
    assert_eq!(pm.reason, "test failure");
}

/// Device 1: a scope over two charges, [0, 1] and [1, 5]. Device 0: a
/// 2 ns charge that faults, the fault, then a 3 ns charge ending at 5.
fn group(device_zero_first: bool) -> Vec<Arc<Device>> {
    let devs: Vec<Arc<Device>> = (0..2)
        .map(|id| Device::new(id, DeviceProps::rtx4090()))
        .collect();
    devs[0].enable_faults(FaultPlan::new().transient_at(0));
    let zero = || {
        devs[0].charge_ns("warm", Phase::Other, 2.0);
        assert!(devs[0].poll_fault().is_err());
        devs[0].charge_ns("tie", Phase::Other, 3.0);
    };
    let one = || {
        let _round = devs[1].prof_scope("round", Some(0));
        devs[1].charge_ns("a", Phase::Histogram, 1.0);
        devs[1].charge_ns("b", Phase::Histogram, 4.0);
    };
    if device_zero_first {
        zero();
        one();
    } else {
        one();
        zero();
    }
    devs
}

/// Events interleave by the device clock they were logged at; a tie
/// goes to the lower device id. The host order the devices were driven
/// in does not matter.
#[test]
fn postmortem_interleaves_devices_in_simulated_time_order() {
    let pm = postmortem("device lost", &group(false));
    let order: Vec<(usize, &str, &str)> = pm
        .events
        .iter()
        .map(|e| (e.device, e.kind, e.name.as_ref()))
        .collect();
    assert_eq!(
        order,
        [
            (1, "charge", "a"),
            (0, "charge", "warm"),
            (
                0,
                "fault",
                "transient kernel fault on device 0: `warm` (charge #0)"
            ),
            (0, "charge", "tie"),
            (1, "charge", "b"),
            (1, "span", "round 0"),
        ]
    );
    assert_eq!(
        pm.events[2].start_ns, 2.0,
        "a fault carries its poll's clock"
    );
    assert_eq!(
        pm.to_json(),
        postmortem("device lost", &group(true)).to_json()
    );

    let v: Value = serde_json::from_str(&pm.to_json()).expect("postmortem JSON parses");
    let obj = v.as_object().expect("object");
    assert!(obj.iter().any(|(k, _)| k == "telemetry_schema_version"));
    let (_, events) = obj.iter().find(|(k, _)| k == "events").expect("events");
    for e in events.as_array().expect("events array") {
        let keys: Vec<&str> = e
            .as_object()
            .expect("event object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["seq", "kind", "device", "name", "detail", "start_ns", "end_ns", "stream"]
        );
    }
}
