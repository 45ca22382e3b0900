//! `zoo::built_by_name` resolves only the nets this process has already
//! built. The zoo's build table is per process, so this test has a
//! binary of its own: no other test can have built a net before it looks.

use lcmm_graph::zoo::{built_by_name, by_name};

#[test]
fn built_by_name_resolves_built_nets_and_never_builds() {
    assert!(built_by_name("vgg16").is_none(), "vgg16 is not built yet");
    assert!(
        built_by_name("vgg").is_none(),
        "the lookup must not build it either"
    );
    let vgg = by_name("vgg16").expect("zoo net");
    // Every alias by_name accepts finds the one built graph.
    for alias in ["vgg16", "vgg", "VGG16"] {
        let built = built_by_name(alias).expect("vgg16 is built now");
        assert_eq!(built.fingerprint().as_ptr(), vgg.fingerprint().as_ptr());
    }
    assert!(
        built_by_name("alexnet").is_none(),
        "other nets stay unbuilt"
    );
    assert!(built_by_name("synthetic:32x2x7").is_none());
    assert!(built_by_name("lenet").is_none());
}
