package partition

import (
	"fmt"
	"sort"
	"sync"
)

// The registry maps scheme names to constructors so that the CLI, the
// experiment harness and the examples can select partitioners by the names
// the paper uses. internal/core registers "BPart" and internal/multilevel
// registers "Multilevel" via init, keeping this package free of upward
// dependencies.

var (
	registryMu sync.RWMutex
	registry   = map[string]func() Partitioner{}
)

// Register makes a scheme available under its name. It panics on duplicate
// registration — that is always a programming error.
func Register(name string, factory func() Partitioner) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("partition: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// Get returns a fresh instance of the named scheme.
func Get(name string) (Partitioner, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("partition: unknown scheme %q (have %v)", name, Names())
	}
	return factory(), nil
}

// Names returns all registered scheme names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("Chunk-V", func() Partitioner { return ChunkV{} })
	Register("Chunk-E", func() Partitioner { return ChunkE{} })
	Register("Hash", func() Partitioner { return Hash{} })
	// Fennel is registered as a pointer so a tracer can be attached
	// after construction (telemetry.Instrumentable).
	Register("Fennel", func() Partitioner { return &Fennel{} })
}
