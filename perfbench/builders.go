package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"firemarshal/internal/boards"
	"firemarshal/internal/cas"
	"firemarshal/internal/firmware"
	"firemarshal/internal/fsimg"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/kconfig"
	"firemarshal/internal/kernel"
	"firemarshal/internal/obs"
	"firemarshal/internal/spec"
)

// layerReps is how many times a layer is timed from outside; the median
// is reported.
const layerReps = 5

// buildLayers times, by calling each layer's public functions, the
// layers a build of workload name (in wlDir) goes through: spec loading,
// dependency hashing of its inputs and of the artifacts in images, the
// kernel and firmware builds, and encoding of every image in images.
func buildLayers(r *run, wlDir, name, images string) error {
	newLoader := func() (*spec.Loader, error) {
		l := spec.NewLoader(wlDir)
		return l, boards.RegisterBuiltins(l)
	}
	sec, err := timeMedian(layerReps, func() error {
		l, err := newLoader()
		if err != nil {
			return err
		}
		_, err = l.Load(name)
		return err
	})
	if err != nil {
		return err
	}
	r.set("spec.load_s", "s", sec)

	l, err := newLoader()
	if err != nil {
		return err
	}
	w, err := l.Load(name)
	if err != nil {
		return err
	}
	// Every workload of the build: the inheritance chain and the jobs.
	all := append(w.Chain(), w.Jobs...)

	// The dependency tracker hashes every file and directory input of
	// the build's tasks (fragments, overlays, guest-init scripts) and the
	// parent artifacts children copy.
	files := map[string]bool{}
	dirs := map[string]bool{}
	for _, c := range all {
		for _, f := range c.ConfigFragments() {
			files[f] = true
		}
		if c.GuestInit != "" {
			files[c.HostPath(c.GuestInit)] = true
		}
		if c.Overlay != "" {
			dirs[c.HostPath(c.Overlay)] = true
		}
	}
	arts, err := filepath.Glob(filepath.Join(images, "*"))
	if err != nil {
		return err
	}
	for _, a := range arts {
		files[a] = true
	}
	if sec, err = timeMedian(layerReps, func() error {
		for _, f := range sortedKeys(files) {
			if _, err := hostutil.HashFile(f); err != nil {
				return err
			}
		}
		for _, d := range sortedKeys(dirs) {
			if _, err := hostutil.HashDir(d); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.set("dag.hash_s", "s", sec)

	// Kernel and firmware builds: one per workload that configures the
	// kernel or firmware; a build with none of those builds the default
	// kernel once for its root.
	var builds []*spec.Workload
	for _, c := range w.Chain() {
		if c.Linux != nil || c.Firmware != nil {
			builds = append(builds, c)
		}
	}
	if len(builds) == 0 {
		builds = []*spec.Workload{w}
	}
	var kernelS, firmwareS []float64
	for rep := 0; rep < layerReps; rep++ {
		var ks, fs float64
		for _, b := range builds {
			k, f, err := timeBootBinary(b)
			if err != nil {
				return err
			}
			ks += k
			fs += f
		}
		kernelS = append(kernelS, ks)
		firmwareS = append(firmwareS, fs)
	}
	r.set("kernel.build_s", "s", median(kernelS))
	r.set("firmware.build_s", "s", median(firmwareS))

	// Image encoding of every image the build produced.
	var imgs []*fsimg.FS
	for _, a := range arts {
		if filepath.Ext(a) != ".img" {
			continue
		}
		data, err := os.ReadFile(a)
		if err != nil {
			return err
		}
		fs, err := fsimg.Decode(data)
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		imgs = append(imgs, fs)
	}
	if len(imgs) == 0 {
		return fmt.Errorf("no images under %s", images)
	}
	if sec, err = timeMedian(layerReps, func() error {
		for _, fs := range imgs {
			_ = fs.Encode()
		}
		return nil
	}); err != nil {
		return err
	}
	r.set("fsimg.encode_s", "s", sec)
	return nil
}

// timeBootBinary builds w's kernel and firmware the way the build path
// does and returns the seconds each took.
func timeBootBinary(w *spec.Workload) (kernelS, firmwareS float64, err error) {
	var frags []*kconfig.Config
	for _, p := range w.ConfigFragments() {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, 0, err
		}
		frag, err := kconfig.Parse(string(data))
		if err != nil {
			return 0, 0, err
		}
		frags = append(frags, frag)
	}
	start := time.Now()
	kimg, err := kernel.Build(kernel.BuildOpts{Fragments: frags, Modules: w.Modules()})
	if err != nil {
		return 0, 0, err
	}
	kernelS = time.Since(start).Seconds()
	var fwArgs []string
	for _, c := range w.Chain() {
		if c.Firmware != nil {
			fwArgs = append(fwArgs, c.Firmware.BuildArgs...)
		}
	}
	start = time.Now()
	if _, err := firmware.Build(w.EffectiveFirmware(), fwArgs, kimg); err != nil {
		return 0, 0, err
	}
	return kernelS, time.Since(start).Seconds(), nil
}

// casLayers times the artifact cache on a set of artifact files: Publish
// into a fresh cache, Store.Put of their bytes into another store (what a
// reader does with blobs it fetched), and Restore of every published
// action into a fresh directory.
func casLayers(r *run, arts []string) error {
	var payloads [][]byte
	for _, a := range arts {
		data, err := os.ReadFile(a)
		if err != nil {
			return err
		}
		payloads = append(payloads, data)
	}
	var pubS, putS, restoreS []float64
	for rep := 0; rep < layerReps; rep++ {
		base := filepath.Join(r.dir, fmt.Sprintf("cas%d", rep))
		store, err := cas.Open(filepath.Join(base, "pub"))
		if err != nil {
			return err
		}
		c := cas.NewCache(store, nil)
		c.SetObs(obs.NewRegistry())
		var actions []*cas.Action
		start := time.Now()
		for _, a := range arts {
			act, err := c.Publish(hostutil.HashStrings("perfbench", a), filepath.Base(a), []string{a})
			if err != nil {
				return err
			}
			actions = append(actions, act)
		}
		pubS = append(pubS, time.Since(start).Seconds())

		put, err := cas.Open(filepath.Join(base, "put"))
		if err != nil {
			return err
		}
		start = time.Now()
		for _, p := range payloads {
			if _, err := put.Put(p); err != nil {
				return err
			}
		}
		putS = append(putS, time.Since(start).Seconds())

		out := filepath.Join(base, "restore")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		start = time.Now()
		for i, act := range actions {
			if err := c.Restore(act, []string{filepath.Join(out, filepath.Base(arts[i]))}); err != nil {
				return err
			}
		}
		restoreS = append(restoreS, time.Since(start).Seconds())
		if err := os.RemoveAll(base); err != nil {
			return err
		}
	}
	r.set("cas.publish_s", "s", median(pubS))
	r.set("cas.put_s", "s", median(putS))
	r.set("cas.restore_s", "s", median(restoreS))
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
