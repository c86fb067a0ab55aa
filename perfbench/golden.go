package main

// shippedDigests are the reference sets digests at each workload's default
// scale, for the default seed (1) and the held-out seed (2), one per world
// of the run's family in order: the study's scored-partition digest, the
// longitudinal run's digest per world and epoch, and each daemon corpus's
// batch-backend digest. The study and longitudinal entries equal the
// sets_digest the scenario engine reports for the baseline and churn-storm
// presets on the same world seeds. A claim about a change must hold on the
// held-out seed too; any other seed is checked by re-resolution through a
// second backend only.
var shippedDigests = map[string]map[uint64][]string{
	"study": {
		1: {
			"9ebf737c9390c019098773c25110d07aa56e3e7dfa0e72f4ccadbb5f2e891e06",
			"5ef739b275d3c6505a38076492744ac03c552f7a9151242c4a6705f345cf0266",
			"5417135a3a73f7ef61efa2e08e0c5352b88c0038db03b7a1d598ce32f4d51f2a",
		},
		2: {
			"d00ae4370a4d4a8664203c649d3243579f4bbd6ad1c5b7430c6a0b8a269d9e95",
			"c798fc9a9794a16aef1be309251763bb017c8da63ed0759c718e1c83021b9e75",
			"e501cbdb6a2a3a06d3a658635c0e2b7da8dd526676f437d6b1bb543b27bdd6e0",
		},
	},
	"longitudinal": {
		1: {
			"a9c41c3db3036cba34e48a094dbd024c2e93be65372ee83633fa4320df18df06",
			"a243e55413796f1e1ffba0bbe629effbe3b4f4c5109758ba63ec4da2265c547e",
			"5cc488e0cd7f42e530094c1422c3bdbf33225a95e61c1ac5de9aab91392527cc",
			"561f058b47734a385260a3625b8b3f53333073daf4981215bc6dc2806e0281e4",
			"41861feb4bf1d6ff6c7fb979cb22036138dcb0109d603d6bd65c1f5d1a5444c5",
			"16926a90ca3e5142b45a3a948021aa7bb203c00324683c78be5cef9814656e41",
			"f1da33fe6db880cdb46d48cb63611cb33b42b2cd31c93e05318f916d6617babd",
			"7294a11ec5f12b755b5e19573f5a96f5196404b281a985d98ef8c60e332143d4",
			"f17827bd44d803be011dd61837c3a5472a60cd80100e9419b52e4cd3f2213244",
		},
		2: {
			"cc3df5125abca66e74e7f7d85d36b1844580bf192196ee65e4b7a85134c6cde5",
			"fdb323aaee38913f807d7e5d73722feaf6e7bf10870d22b9eb9e7dc7db1b76f1",
			"8ec8e945fd276a1824db65419e7bad83cea5cc0d8ab39ba032cde68bba725d47",
			"b2ea2d14719a523872da83c3d483ef2808cb953cc5bfc71fa49a0744a49556fb",
			"bfa2950a8578e3604fa89edb882b16d140d9b58acaddbb99eca33c14d2915c26",
			"0c5b3062264e7691f153a6cb260fbbdf9e1811e94324bcd14cbd85a5df7bbe3a",
			"c9e8f8b2c60b1ddce10da7db73a541f1e15f6c78693262defef348c7f469fe9d",
			"2512e999c740bc56603f9f2cedc6dbcd1fbf09ea2fd9b8ab0cffad2cb492772c",
			"787eca58b70866477ac0edd066757052ccd5ed1e31bfa6c3636cb11c025f5f9f",
		},
	},
	"daemon": {
		1: {
			"fe17ddd73146ec867ec153f782a4f2d8c9da2d5acdd214f8038f73cb87425fda",
			"d4a91fb7aba823c33004f6a9ca951787e8743d9e313de295551f2aff8cf0ace0",
			"585f66cd4b4d6f8d41621139ece34b824d483c24d1d0be78c8c467c661900469",
		},
		2: {
			"8cb10d22858fb1d366d11b2fbcb33e0dc2e1f1da0c50b24b4c11b3988b03536b",
			"5fee9e4a3e2538711eb9a92cd2fa77e2653d38d9e51a796d0825717c0edd5017",
			"e3f390e171013b46d150eb4fc1f0bbd055029250bf9b3b2962f6ca829ddae8ad",
		},
	},
}

// goldenFor returns the shipped digests for a workload and seed; scale is
// the --scale flag, and the digests hold only at the default (0).
func goldenFor(workload string, seed uint64, scale float64) ([]string, bool) {
	if scale != 0 {
		return nil, false
	}
	d, ok := shippedDigests[workload][seed]
	return d, ok
}
